#include "workloads/kmeans.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// membership[i] = argmin_c sum_d (point[i][d] - centroid[c][d])^2.
/// Loops are fully unrolled at build time (kDims/kClusters are constants).
isa::ProgramPtr build_kmeans_assign(u32 dims, u32 clusters) {
  using namespace isa;
  KernelBuilder kb("kmeans_assign");

  Reg pts = kb.reg(), cent = kb.reg(), member = kb.reg(), n = kb.reg();
  kb.ldp(pts, 0);
  kb.ldp(cent, 1);
  kb.ldp(member, 2);
  kb.ldp(n, 3);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  // Base address of this point's features.
  Reg p_base = kb.reg(), lin = kb.reg();
  kb.imul(lin, tid, imm(static_cast<i32>(dims)));
  kb.imad(p_base, lin, imm(4), pts);

  // Load the point once.
  std::vector<Reg> p(dims);
  for (u32 d = 0; d < dims; ++d) {
    p[d] = kb.reg();
    kb.ldg(p[d], p_base, static_cast<i32>(d * 4));
  }

  Reg best_d = kb.reg(), best_c = kb.reg(), dist = kb.reg(), diff = kb.reg(),
      cv = kb.reg();
  kb.movf(best_d, 1e30f);
  kb.movi(best_c, 0);
  // One predicate reused across cluster iterations: each setp is consumed by
  // the selp pair right after it, and `clusters` fresh allocations would
  // blow the 8-register predicate file.
  PredReg closer = kb.pred();
  for (u32 c = 0; c < clusters; ++c) {
    kb.movf(dist, 0.0f);
    for (u32 d = 0; d < dims; ++d) {
      kb.ldg(cv, cent, static_cast<i32>((c * dims + d) * 4));
      kb.fsub(diff, p[d], cv);
      kb.ffma(dist, diff, diff, dist);
    }
    kb.setp(closer, CmpOp::kLt, DType::kF32, dist, best_d);
    kb.selp(best_d, dist, best_d, closer);
    kb.selp(best_c, imm(static_cast<i32>(c)), best_c, closer);
  }
  Reg a_m = util::elem_addr(kb, member, tid);
  kb.stg(a_m, best_c);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Kmeans::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 2048 : 16384;
  iters_ = scale == Scale::kTest ? 2 : 6;
  Rng rng(seed);

  points_.resize(static_cast<size_t>(n_) * kDims);
  for (float& v : points_) v = rng.next_float(0.0f, 10.0f);
  init_centroids_.resize(static_cast<size_t>(kClusters) * kDims);
  for (u32 c = 0; c < kClusters; ++c)
    for (u32 d = 0; d < kDims; ++d)
      init_centroids_[c * kDims + d] = points_[(c * 37 % n_) * kDims + d];

  // Reference: identical assignment + recentering loop.
  std::vector<float> cent = init_centroids_;
  std::vector<i32> member(n_, 0);
  for (u32 it = 0; it < iters_; ++it) {
    for (u32 i = 0; i < n_; ++i) {
      float best_d = 1e30f;
      i32 best_c = 0;
      for (u32 c = 0; c < kClusters; ++c) {
        float dist = 0.0f;
        for (u32 d = 0; d < kDims; ++d) {
          const float diff = points_[i * kDims + d] - cent[c * kDims + d];
          dist = std::fma(diff, diff, dist);
        }
        if (dist < best_d) {
          best_d = dist;
          best_c = static_cast<i32>(c);
        }
      }
      member[i] = best_c;
    }
    // Recenter (host side in Rodinia too).
    std::vector<float> sum(static_cast<size_t>(kClusters) * kDims, 0.0f);
    std::vector<u32> count(kClusters, 0);
    for (u32 i = 0; i < n_; ++i) {
      count[member[i]] += 1;
      for (u32 d = 0; d < kDims; ++d)
        sum[member[i] * kDims + d] += points_[i * kDims + d];
    }
    for (u32 c = 0; c < kClusters; ++c)
      if (count[c] > 0)
        for (u32 d = 0; d < kDims; ++d)
          cent[c * kDims + d] = sum[c * kDims + d] / static_cast<float>(count[c]);
  }
  reference_ = member;
  result_.clear();
}

void Kmeans::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(n_) * kDims * 4;
  session.device().host_parse(input_bytes * 8);  // feature text file

  const u64 pts_bytes = static_cast<u64>(n_) * kDims * 4;
  const u64 cent_bytes = static_cast<u64>(kClusters) * kDims * 4;
  const u64 mem_bytes = static_cast<u64>(n_) * 4;
  core::ReplicaPtr d_pts = session.alloc(pts_bytes);
  core::ReplicaPtr d_cent = session.alloc(cent_bytes);
  core::ReplicaPtr d_mem = session.alloc(mem_bytes);
  session.h2d(d_pts, points_.data(), pts_bytes);

  isa::ProgramPtr prog = build_kmeans_assign(kDims, kClusters);
  std::vector<float> cent = init_centroids_;
  std::vector<i32> member(n_);
  for (u32 it = 0; it < iters_; ++it) {
    session.h2d(d_cent, cent.data(), cent_bytes);
    session.launch(prog, sim::Dim3{ceil_div(n_, 256), 1, 1},
                   sim::Dim3{256, 1, 1}, {d_pts, d_cent, d_mem, n_});
    session.sync();
    session.d2h(member.data(), d_mem, mem_bytes);
    // Host recentering (charged as host compute on the timeline).
    session.device().host_compute(pts_bytes);
    std::vector<float> sum(static_cast<size_t>(kClusters) * kDims, 0.0f);
    std::vector<u32> count(kClusters, 0);
    for (u32 i = 0; i < n_; ++i) {
      count[member[i]] += 1;
      for (u32 d = 0; d < kDims; ++d)
        sum[member[i] * kDims + d] += points_[i * kDims + d];
    }
    for (u32 c = 0; c < kClusters; ++c)
      if (count[c] > 0)
        for (u32 d = 0; d < kDims; ++d)
          cent[c * kDims + d] = sum[c * kDims + d] / static_cast<float>(count[c]);
  }

  result_ = member;
  session.compare(d_mem, mem_bytes, result_.data());
}

bool Kmeans::verify() const { return result_ == reference_; }

}  // namespace higpu::workloads
