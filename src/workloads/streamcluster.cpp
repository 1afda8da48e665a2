#include "workloads/streamcluster.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// cost[i] = min(cost[i], weight * dist2(point[i], point[center]))
isa::ProgramPtr build_pgain_kernel(u32 dims) {
  using namespace isa;
  KernelBuilder kb("sc_pgain");

  Reg pts = kb.reg(), cost = kb.reg(), n = kb.reg(), center = kb.reg(),
      weight = kb.reg();
  kb.ldp(pts, 0);
  kb.ldp(cost, 1);
  kb.ldp(n, 2);
  kb.ldp(center, 3);
  kb.ldp(weight, 4);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg lin = kb.reg(), p_base = kb.reg(), c_base = kb.reg();
  kb.imul(lin, tid, imm(static_cast<i32>(dims)));
  kb.imad(p_base, lin, imm(4), pts);
  kb.imul(lin, center, imm(static_cast<i32>(dims)));
  kb.imad(c_base, lin, imm(4), pts);

  Reg dist = kb.reg(), a = kb.reg(), b = kb.reg(), diff = kb.reg();
  kb.movf(dist, 0.0f);
  for (u32 d = 0; d < dims; ++d) {
    kb.ldg(a, p_base, static_cast<i32>(d * 4));
    kb.ldg(b, c_base, static_cast<i32>(d * 4));
    kb.fsub(diff, a, b);
    kb.ffma(dist, diff, diff, dist);
  }
  kb.fmul(dist, dist, weight);

  Reg a_c = util::elem_addr(kb, cost, tid);
  Reg cur = kb.reg();
  kb.ldg(cur, a_c);
  kb.fmin(cur, cur, dist);
  kb.stg(a_c, cur);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Streamcluster::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 1024 : 8192;
  candidates_ = scale == Scale::kTest ? 4 : 48;
  Rng rng(seed);

  points_.resize(static_cast<size_t>(n_) * kDims);
  for (float& v : points_) v = rng.next_float(0.0f, 1.0f);

  reference_.assign(n_, 1e30f);
  for (u32 c = 0; c < candidates_; ++c) {
    const u32 center = (c * 131) % n_;
    const float weight = 1.0f + 0.01f * static_cast<float>(c);
    for (u32 i = 0; i < n_; ++i) {
      float dist = 0.0f;
      for (u32 d = 0; d < kDims; ++d) {
        const float diff =
            points_[i * kDims + d] - points_[center * kDims + d];
        dist = std::fma(diff, diff, dist);
      }
      dist *= weight;
      reference_[i] = std::fmin(reference_[i], dist);
    }
  }
  result_.clear();
}

void Streamcluster::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(n_) * kDims * 4;
  session.device().host_generate(input_bytes);  // points synthesized in memory

  const u64 pts_bytes = static_cast<u64>(n_) * kDims * 4;
  const u64 cost_bytes = static_cast<u64>(n_) * 4;
  core::ReplicaPtr d_pts = session.alloc(pts_bytes);
  core::ReplicaPtr d_cost = session.alloc(cost_bytes);
  session.h2d(d_pts, points_.data(), pts_bytes);
  std::vector<float> init(n_, 1e30f);
  session.h2d(d_cost, init.data(), cost_bytes);

  isa::ProgramPtr prog = build_pgain_kernel(kDims);
  const u32 blocks = ceil_div(n_, 256);
  for (u32 c = 0; c < candidates_; ++c) {
    const u32 center = (c * 131) % n_;
    const float weight = 1.0f + 0.01f * static_cast<float>(c);
    session.launch(prog, sim::Dim3{blocks, 1, 1}, sim::Dim3{256, 1, 1},
                   {d_pts, d_cost, n_, center, weight});
  }
  session.sync();

  result_.resize(n_);
  session.d2h(result_.data(), d_cost, cost_bytes);
  session.compare(d_cost, cost_bytes, result_.data());
}

bool Streamcluster::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
