#include "workloads/particlefilter.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// Likelihood of each particle against the current frame:
///   lik[p] = (1/S) * sum_s [ (I(pos_p + off_s) - 1.0)^2
///                          - (I(pos_p + off_s) - 0.5)^2 ]
/// Params: frame, posx, posy, offsets, lik, dim, nparticles.
isa::ProgramPtr build_likelihood_kernel(u32 samples) {
  using namespace isa;
  KernelBuilder kb("pf_likelihood");

  Reg img = kb.reg(), posx = kb.reg(), posy = kb.reg(), off = kb.reg(),
      lik = kb.reg(), dim = kb.reg(), n = kb.reg();
  kb.ldp(img, 0);
  kb.ldp(posx, 1);
  kb.ldp(posy, 2);
  kb.ldp(off, 3);
  kb.ldp(lik, 4);
  kb.ldp(dim, 5);
  kb.ldp(n, 6);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a = kb.reg(), x = kb.reg(), y = kb.reg();
  kb.imad(a, tid, imm(4), posx);
  kb.ldg(x, a);
  kb.imad(a, tid, imm(4), posy);
  kb.ldg(y, a);

  Reg dm1 = kb.reg();
  kb.isub(dm1, dim, imm(1));

  Reg acc = kb.reg(), sx = kb.reg(), sy = kb.reg(), t = kb.reg(),
      v = kb.reg(), d1 = kb.reg(), d2 = kb.reg(), lin = kb.reg(),
      dxr = kb.reg(), dyr = kb.reg();
  kb.movf(acc, 0.0f);
  for (u32 s = 0; s < samples; ++s) {
    // Load this sample's (dx, dy) from the offsets table.
    kb.ldg(dxr, off, static_cast<i32>((2 * s) * 4));
    kb.ldg(dyr, off, static_cast<i32>((2 * s + 1) * 4));
    kb.iadd(t, x, dxr);
    kb.imax(t, t, imm(0));
    kb.imin(sx, t, dm1);
    kb.iadd(t, y, dyr);
    kb.imax(t, t, imm(0));
    kb.imin(sy, t, dm1);
    kb.imad(lin, sy, dim, sx);
    kb.imad(a, lin, imm(4), img);
    kb.ldg(v, a);
    kb.fsub(d1, v, fimm(1.0f));
    kb.fsub(d2, v, fimm(0.5f));
    kb.ffma(acc, d1, d1, acc);
    Reg neg = kb.reg();
    kb.fmul(neg, d2, d2);
    kb.fsub(acc, acc, neg);
  }
  kb.fmul(acc, acc, fimm(1.0f / static_cast<float>(samples)));
  Reg a_out = util::elem_addr(kb, lik, tid);
  kb.stg(a_out, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void ParticleFilter::setup(Scale scale, u64 seed) {
  particles_ = scale == Scale::kTest ? 512 : 4096;
  frames_ = scale == Scale::kTest ? 2 : 8;
  frame_dim_ = scale == Scale::kTest ? 32 : 64;
  Rng rng(seed);

  frames_data_.resize(static_cast<size_t>(frames_) * frame_dim_ * frame_dim_);
  for (float& v : frames_data_) v = rng.next_float(0.0f, 1.0f);

  offsets_.resize(2 * kSamples);
  for (u32 s = 0; s < kSamples; ++s) {
    offsets_[2 * s] = static_cast<i32>(rng.next_below(9)) - 4;
    offsets_[2 * s + 1] = static_cast<i32>(rng.next_below(9)) - 4;
  }
  positions_.resize(static_cast<size_t>(particles_) * 2);
  for (u32 p = 0; p < particles_; ++p) {
    positions_[2 * p] = static_cast<i32>(rng.next_below(frame_dim_));
    positions_[2 * p + 1] = static_cast<i32>(rng.next_below(frame_dim_));
  }

  // CPU reference: accumulate likelihoods over frames with the same
  // deterministic motion model used in run().
  reference_.assign(particles_, 0.0f);
  std::vector<i32> pos = positions_;
  auto clampi = [&](i32 v) {
    return static_cast<u32>(
        v < 0 ? 0 : (v >= static_cast<i32>(frame_dim_)
                         ? static_cast<i32>(frame_dim_) - 1
                         : v));
  };
  for (u32 f = 0; f < frames_; ++f) {
    const float* img = &frames_data_[static_cast<size_t>(f) * frame_dim_ * frame_dim_];
    for (u32 p = 0; p < particles_; ++p) {
      float acc = 0.0f;
      for (u32 s = 0; s < kSamples; ++s) {
        const u32 sx = clampi(pos[2 * p] + offsets_[2 * s]);
        const u32 sy = clampi(pos[2 * p + 1] + offsets_[2 * s + 1]);
        const float v = img[sy * frame_dim_ + sx];
        const float d1 = v - 1.0f;
        const float d2 = v - 0.5f;
        acc = std::fma(d1, d1, acc);
        acc -= d2 * d2;
      }
      reference_[p] += acc * (1.0f / static_cast<float>(kSamples));
    }
    for (u32 p = 0; p < particles_; ++p) {
      pos[2 * p] = static_cast<i32>((pos[2 * p] + 3) % frame_dim_);
      pos[2 * p + 1] = static_cast<i32>((pos[2 * p + 1] + 1) % frame_dim_);
    }
  }
  result_.clear();
}

void ParticleFilter::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Video decode on the host dominates the real benchmark's setup.
  const u64 input_bytes =
      static_cast<u64>(frames_) * frame_dim_ * frame_dim_ * 4;
  session.device().host_parse(input_bytes * 4);

  const u64 frame_bytes = static_cast<u64>(frame_dim_) * frame_dim_ * 4;
  const u64 p_bytes = static_cast<u64>(particles_) * 4;
  core::ReplicaPtr d_img = session.alloc(frame_bytes);
  core::ReplicaPtr d_px = session.alloc(p_bytes);
  core::ReplicaPtr d_py = session.alloc(p_bytes);
  core::ReplicaPtr d_off = session.alloc(2 * kSamples * 4);
  core::ReplicaPtr d_lik = session.alloc(p_bytes);
  session.h2d(d_off, offsets_.data(), 2 * kSamples * 4);

  isa::ProgramPtr prog = build_likelihood_kernel(kSamples);
  std::vector<i32> pos = positions_;
  std::vector<i32> xs(particles_), ys(particles_);
  // lik_ is a member: it is the final compare()'s host destination, and
  // rollback recovery may re-fetch into it after run() returns.
  lik_.assign(particles_, 0.0f);
  result_.assign(particles_, 0.0f);

  for (u32 f = 0; f < frames_; ++f) {
    for (u32 p = 0; p < particles_; ++p) {
      xs[p] = pos[2 * p];
      ys[p] = pos[2 * p + 1];
    }
    session.h2d(d_img,
                &frames_data_[static_cast<size_t>(f) * frame_dim_ * frame_dim_],
                frame_bytes);
    session.h2d(d_px, xs.data(), p_bytes);
    session.h2d(d_py, ys.data(), p_bytes);
    session.launch(prog, sim::Dim3{ceil_div(particles_, 256), 1, 1},
                   sim::Dim3{256, 1, 1},
                   {d_img, d_px, d_py, d_off, d_lik, frame_dim_, particles_});
    session.sync();
    session.d2h(lik_.data(), d_lik, p_bytes);
    // Host: weight accumulation + resampling work.
    session.device().host_compute(2 * p_bytes);
    for (u32 p = 0; p < particles_; ++p) result_[p] += lik_[p];
    for (u32 p = 0; p < particles_; ++p) {
      pos[2 * p] = static_cast<i32>((pos[2 * p] + 3) % frame_dim_);
      pos[2 * p + 1] = static_cast<i32>((pos[2 * p + 1] + 1) % frame_dim_);
    }
  }
  session.compare(d_lik, p_bytes, lik_.data());
}

bool ParticleFilter::verify() const {
  return approx_equal(result_, reference_);
}

}  // namespace higpu::workloads
