// Shared helpers for simulator-level tests: tiny kernels of controllable
// shape and a convenience harness around Gpu.
#pragma once

#include <string>
#include <vector>

#include "isa/builder.h"
#include "sim/gpu.h"

namespace higpu::testing {

/// A kernel that spins `iters` FFMA iterations per thread, then writes one
/// word to out[gid]. Duration scales ~linearly with `iters`.
inline isa::ProgramPtr make_spin_kernel(u32 iters, const std::string& name = "spin") {
  using namespace isa;
  KernelBuilder kb(name);
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);

  Reg acc = kb.reg(), k = kb.reg();
  kb.movf(acc, 1.0f);
  kb.movi(k, 0);
  Label loop = kb.label(), end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, k, imm(static_cast<i32>(iters)));
  kb.bra(end).guard_if(fin);
  kb.ffma(acc, acc, fimm(1.000001f), fimm(0.5f));
  kb.iadd(k, k, imm(1));
  kb.bra(loop);
  kb.bind(end);
  Reg addr = kb.reg();
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// A trivial one-instruction-per-thread kernel: out[gid] = gid.
inline isa::ProgramPtr make_store_kernel(const std::string& name = "store_gid") {
  using namespace isa;
  KernelBuilder kb(name);
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg addr = kb.reg();
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, gid);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// A loop with no dependencies between rounds that keeps both the LSU and
/// the SFU busy, so a full SM queues its warps on one unit while the other
/// is busy too: a warp waiting on one unit must not be mistaken for one
/// waiting on the other. Each round issues `sqrts` independent square roots
/// (each holds the SFU for sfu_interval cycles) and one store whose lanes
/// are `lane_stride` bytes apart (each line holds the LSU for a cycle).
/// With `advance` the store moves on each round and misses in the L1,
/// filling the MSHR; without it every warp rewrites the same lines.
inline isa::ProgramPtr make_herd_kernel(u32 reps, u32 sqrts, u32 lane_stride,
                                        bool advance, const std::string& name) {
  using namespace isa;
  KernelBuilder kb(name);
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg addr = kb.reg(), k = kb.reg(), x = kb.reg();
  std::vector<Reg> roots;
  for (u32 i = 0; i < sqrts; ++i) roots.push_back(kb.reg());
  Reg first = gid;  // lane of the first store: the thread, or its lane id
  if (!advance) {
    first = kb.reg();
    kb.s2r(first, SReg::kLaneId);
  }
  kb.imad(addr, first, imm(static_cast<i32>(lane_stride)), out);
  kb.i2f(x, gid);
  kb.movi(k, 0);
  Label loop = kb.label(), end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, k, imm(static_cast<i32>(reps)));
  kb.bra(end).guard_if(fin);
  kb.stg(addr, k);
  for (Reg r : roots) kb.fsqrt(r, x);
  if (advance) kb.iadd(addr, addr, imm(4));
  kb.iadd(k, k, imm(1));
  kb.bra(loop);
  kb.bind(end);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// LSU herd: each store touches 32 fresh lines (32+ LSU cycles, longer once
/// the MSHR fills), next to 4 square roots (16 SFU cycles).
inline isa::ProgramPtr make_lsu_herd_kernel(u32 reps) {
  return make_herd_kernel(reps, 4, 128, true, "lsu_herd");
}

/// SFU herd: 8 square roots (32 SFU cycles) next to a store to 16 lines
/// every warp shares, which hit in the L1 after the first round.
inline isa::ProgramPtr make_sfu_herd_kernel(u32 reps) {
  return make_herd_kernel(reps, 8, 64, false, "sfu_herd");
}

/// Threads that fill every warp slot of every SM of `p`.
inline u32 full_gpu_threads(const sim::GpuParams& p) {
  return p.num_sms * p.max_warps_per_sm * p.warp_size;
}

/// Build a launch descriptor for `threads` total threads in blocks of
/// `block_size`.
inline sim::KernelLaunch make_launch(isa::ProgramPtr prog, u32 threads,
                                     u32 block_size, std::vector<u32> params) {
  sim::KernelLaunch l;
  l.program = std::move(prog);
  l.grid = {higpu::ceil_div(threads, block_size), 1, 1};
  l.block = {block_size, 1, 1};
  l.params = std::move(params);
  return l;
}

}  // namespace higpu::testing
