#include "workloads/pathfinder.h"

#include <algorithm>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// dst[x] = data[row][x] + min(src[x-1], src[x], src[x+1]) (clamped).
isa::ProgramPtr build_pathfinder_kernel() {
  using namespace isa;
  KernelBuilder kb("pathfinder_row");

  Reg src = kb.reg(), dst = kb.reg(), data = kb.reg(), cols = kb.reg(),
      row = kb.reg();
  kb.ldp(src, 0);
  kb.ldp(dst, 1);
  kb.ldp(data, 2);
  kb.ldp(cols, 3);
  kb.ldp(row, 4);

  Reg x = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, x, cols, done);

  Reg cm1 = kb.reg(), xm = kb.reg(), xp = kb.reg(), t = kb.reg();
  kb.isub(cm1, cols, imm(1));
  kb.isub(t, x, imm(1));
  kb.imax(xm, t, imm(0));
  kb.iadd(t, x, imm(1));
  kb.imin(xp, t, cm1);

  Reg a_m = util::elem_addr(kb, src, xm);
  Reg a_c = util::elem_addr(kb, src, x);
  Reg a_p = util::elem_addr(kb, src, xp);
  Reg vm = kb.reg(), vc = kb.reg(), vp = kb.reg(), best = kb.reg();
  kb.ldg(vm, a_m);
  kb.ldg(vc, a_c);
  kb.ldg(vp, a_p);
  kb.imin(best, vm, vc);
  kb.imin(best, best, vp);

  Reg a_d = util::elem_addr2d(kb, data, row, cols, x);
  Reg w = kb.reg();
  kb.ldg(w, a_d);
  kb.iadd(best, best, w);
  Reg a_o = util::elem_addr(kb, dst, x);
  kb.stg(a_o, best);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Pathfinder::setup(Scale scale, u64 seed) {
  cols_ = scale == Scale::kTest ? 1024 : 16384;
  rows_ = scale == Scale::kTest ? 8 : 32;
  Rng rng(seed);

  data_.resize(static_cast<size_t>(rows_) * cols_);
  for (i32& v : data_) v = static_cast<i32>(rng.next_below(10));

  // Reference DP.
  std::vector<i32> cur(data_.begin(), data_.begin() + cols_);
  std::vector<i32> next(cols_);
  for (u32 r = 1; r < rows_; ++r) {
    for (u32 x = 0; x < cols_; ++x) {
      const u32 xm = x == 0 ? 0 : x - 1;
      const u32 xp = x == cols_ - 1 ? cols_ - 1 : x + 1;
      const i32 best = std::min({cur[xm], cur[x], cur[xp]});
      next[x] = best + data_[static_cast<size_t>(r) * cols_ + x];
    }
    std::swap(cur, next);
  }
  reference_ = cur;
  result_.clear();
}

void Pathfinder::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(rows_) * cols_ * 4;
  session.device().host_generate(input_bytes * 4);  // rand() loop synthesis

  const u64 row_bytes = static_cast<u64>(cols_) * 4;
  const u64 data_bytes = static_cast<u64>(rows_) * cols_ * 4;
  core::ReplicaPtr d_data = session.alloc(data_bytes);
  core::ReplicaPtr d_a = session.alloc(row_bytes);
  core::ReplicaPtr d_b = session.alloc(row_bytes);
  session.h2d(d_data, data_.data(), data_bytes);
  session.h2d(d_a, data_.data(), row_bytes);  // row 0 seeds the DP

  isa::ProgramPtr prog = build_pathfinder_kernel();
  core::ReplicaPtr src = d_a, dst = d_b;
  for (u32 r = 1; r < rows_; ++r) {
    session.launch(prog, sim::Dim3{ceil_div(cols_, 256), 1, 1},
                   sim::Dim3{256, 1, 1}, {src, dst, d_data, cols_, r});
    std::swap(src, dst);
  }
  session.sync();

  result_.resize(cols_);
  session.d2h(result_.data(), src, row_bytes);
  session.compare(src, row_bytes, result_.data());
}

bool Pathfinder::verify() const { return result_ == reference_; }

}  // namespace higpu::workloads
