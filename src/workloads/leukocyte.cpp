#include "workloads/leukocyte.h"

#include <algorithm>
#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

// 8 sample directions (compass) and 4 radii, mirroring the GICOV circle
// sampling structure.
constexpr i32 kDirs[8][2] = {{1, 0}, {1, 1},  {0, 1},  {-1, 1},
                             {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
constexpr u32 kRadii = 4;

/// score[y][x] = max over directions of sum over radii of
///               (img[clamp(y+dy*r)][clamp(x+dx*r)] - img[y][x])
isa::ProgramPtr build_gicov_kernel() {
  using namespace isa;
  KernelBuilder kb("leukocyte_gicov");

  Reg img = kb.reg(), score = kb.reg(), dim = kb.reg();
  kb.ldp(img, 0);
  kb.ldp(score, 1);
  kb.ldp(dim, 2);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Label done = kb.label();
  util::exit_if_ge(kb, gx, dim, done);
  util::exit_if_ge(kb, gy, dim, done);

  Reg dm1 = kb.reg();
  kb.isub(dm1, dim, imm(1));

  Reg a_c = util::elem_addr2d(kb, img, gy, dim, gx);
  Reg center = kb.reg();
  kb.ldg(center, a_c);

  Reg best = kb.reg();
  kb.movf(best, -1e30f);
  Reg sum = kb.reg(), sx = kb.reg(), sy = kb.reg(), v = kb.reg(),
      diff = kb.reg(), t = kb.reg(), a_s = kb.reg(), lin = kb.reg();
  for (const auto& d : kDirs) {
    kb.movf(sum, 0.0f);
    for (u32 r = 1; r <= kRadii; ++r) {
      // sx = clamp(gx + dx*r), sy = clamp(gy + dy*r)
      kb.iadd(t, gx, imm(d[0] * static_cast<i32>(r)));
      kb.imax(t, t, imm(0));
      kb.imin(sx, t, dm1);
      kb.iadd(t, gy, imm(d[1] * static_cast<i32>(r)));
      kb.imax(t, t, imm(0));
      kb.imin(sy, t, dm1);
      kb.imad(lin, sy, dim, sx);
      kb.imad(a_s, lin, imm(4), img);
      kb.ldg(v, a_s);
      kb.fsub(diff, v, center);
      kb.fadd(sum, sum, diff);
    }
    kb.fmax(best, best, sum);
  }
  Reg a_out = util::elem_addr2d(kb, score, gy, dim, gx);
  kb.stg(a_out, best);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// dilated[y][x] = max of score over the 5x5 neighbourhood (clamped).
isa::ProgramPtr build_dilate_kernel() {
  using namespace isa;
  KernelBuilder kb("leukocyte_dilate");

  Reg score = kb.reg(), out = kb.reg(), dim = kb.reg();
  kb.ldp(score, 0);
  kb.ldp(out, 1);
  kb.ldp(dim, 2);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Label done = kb.label();
  util::exit_if_ge(kb, gx, dim, done);
  util::exit_if_ge(kb, gy, dim, done);

  Reg dm1 = kb.reg();
  kb.isub(dm1, dim, imm(1));

  Reg best = kb.reg();
  kb.movf(best, -1e30f);
  Reg sx = kb.reg(), sy = kb.reg(), v = kb.reg(), t = kb.reg(),
      a_s = kb.reg(), lin = kb.reg();
  for (i32 dy = -2; dy <= 2; ++dy) {
    for (i32 dx = -2; dx <= 2; ++dx) {
      kb.iadd(t, gx, imm(dx));
      kb.imax(t, t, imm(0));
      kb.imin(sx, t, dm1);
      kb.iadd(t, gy, imm(dy));
      kb.imax(t, t, imm(0));
      kb.imin(sy, t, dm1);
      kb.imad(lin, sy, dim, sx);
      kb.imad(a_s, lin, imm(4), score);
      kb.ldg(v, a_s);
      kb.fmax(best, best, v);
    }
  }
  Reg a_out = util::elem_addr2d(kb, out, gy, dim, gx);
  kb.stg(a_out, best);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Leukocyte::setup(Scale scale, u64 seed) {
  dim_ = scale == Scale::kTest ? 24 : 128;
  Rng rng(seed);

  image_.resize(static_cast<size_t>(dim_) * dim_);
  for (float& v : image_) v = rng.next_float(0.0f, 1.0f);

  auto clampi = [&](i32 v) {
    return static_cast<u32>(std::clamp(v, 0, static_cast<i32>(dim_) - 1));
  };
  // Reference GICOV scores.
  std::vector<float> score(image_.size());
  for (u32 y = 0; y < dim_; ++y) {
    for (u32 x = 0; x < dim_; ++x) {
      const float center = image_[y * dim_ + x];
      float best = -1e30f;
      for (const auto& d : kDirs) {
        float sum = 0.0f;
        for (u32 r = 1; r <= kRadii; ++r) {
          const u32 sx = clampi(static_cast<i32>(x) + d[0] * static_cast<i32>(r));
          const u32 sy = clampi(static_cast<i32>(y) + d[1] * static_cast<i32>(r));
          sum += image_[sy * dim_ + sx] - center;
        }
        best = std::max(best, sum);
      }
      score[y * dim_ + x] = best;
    }
  }
  // Reference dilation.
  reference_.resize(image_.size());
  for (u32 y = 0; y < dim_; ++y) {
    for (u32 x = 0; x < dim_; ++x) {
      float best = -1e30f;
      for (i32 dy = -2; dy <= 2; ++dy)
        for (i32 dx = -2; dx <= 2; ++dx) {
          const u32 sx = clampi(static_cast<i32>(x) + dx);
          const u32 sy = clampi(static_cast<i32>(y) + dy);
          best = std::max(best, score[sy * dim_ + sx]);
        }
      reference_[y * dim_ + x] = best;
    }
  }
  result_.clear();
}

void Leukocyte::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Rodinia leukocyte decodes video frames on the host first.
  const u64 input_bytes = static_cast<u64>(dim_) * dim_ * 4;
  session.device().host_parse(input_bytes * 8);

  const u64 bytes = static_cast<u64>(dim_) * dim_ * 4;
  core::ReplicaPtr d_img = session.alloc(bytes);
  core::ReplicaPtr d_score = session.alloc(bytes);
  core::ReplicaPtr d_out = session.alloc(bytes);
  session.h2d(d_img, image_.data(), bytes);

  const u32 tiles = ceil_div(dim_, 16);
  session.launch(build_gicov_kernel(), sim::Dim3{tiles, tiles, 1},
                 sim::Dim3{16, 16, 1}, {d_img, d_score, dim_});
  session.launch(build_dilate_kernel(), sim::Dim3{tiles, tiles, 1},
                 sim::Dim3{16, 16, 1}, {d_score, d_out, dim_});
  session.sync();

  result_.resize(static_cast<size_t>(dim_) * dim_);
  session.d2h(result_.data(), d_out, bytes);
  session.compare(d_out, bytes, result_.data());
}

bool Leukocyte::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
