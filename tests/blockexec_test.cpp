// Block-compiled execution engine tests.
//
// Layers: (1) golden-bit lane kernels vs sim::eval_alu, the scalar ALU
// reference, over IEEE-754 / integer edge and random inputs, guard masks,
// destination aliasing and immediate splats, (2) trace-lowering and cache
// properties, (3) the eval_alu hard-error path, (4) every pc's gate
// record, which the SM issues from and executes, against an instruction
// walk, (5) fault-injection goldens, (6) checkpoint/restore mid-run.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.h"
#include "common/rng.h"
#include "core/exec.h"
#include "exp/campaign.h"
#include "fault/injector.h"
#include "isa/builder.h"
#include "memsys/global_store.h"
#include "runtime/device.h"
#include "sched/policies.h"
#include "sim/blockexec.h"
#include "sim/executor.h"
#include "sim/gpu.h"
#include "tests/issue_gate_walk.h"
#include "tests/test_kernels.h"
#include "workloads/workload.h"

namespace higpu {
namespace {

using sim::blockexec::SuperOp;

// ---- Golden-bit lane kernels -----------------------------------------------

/// Every opcode eval_alu accepts (= every opcode the block engine may route
/// through a lane kernel).
const isa::Op kAluOps[] = {
    isa::Op::kMov,   isa::Op::kIadd, isa::Op::kIsub, isa::Op::kImul,
    isa::Op::kImad,  isa::Op::kImin, isa::Op::kImax, isa::Op::kAnd,
    isa::Op::kOr,    isa::Op::kXor,  isa::Op::kNot,  isa::Op::kShl,
    isa::Op::kShr,   isa::Op::kSra,  isa::Op::kFadd, isa::Op::kFsub,
    isa::Op::kFmul,  isa::Op::kFfma, isa::Op::kFmin, isa::Op::kFmax,
    isa::Op::kFabs,  isa::Op::kFneg, isa::Op::kFdiv, isa::Op::kFsqrt,
    isa::Op::kFrcp,  isa::Op::kFexp, isa::Op::kFlog, isa::Op::kFsin,
    isa::Op::kFcos,  isa::Op::kI2f,  isa::Op::kF2i};

/// Adversarial register bit patterns: float specials (NaNs with payloads,
/// infinities, denormals, signed zero, huge/tiny magnitudes), integer
/// boundaries (INT_MIN/INT_MAX, all-ones) and shift counts >= 32.
const u32 kEdge[] = {
    0u,          1u,          2u,          31u,         32u,
    33u,         64u,         100u,        0x7FFFFFFFu, 0x80000000u,
    0xFFFFFFFFu, 0xFFFFFFFEu, f2bits(0.0f),  f2bits(-0.0f),
    f2bits(1.0f),  f2bits(-1.0f), f2bits(0.5f),  f2bits(-2.5f),
    f2bits(1e38f), f2bits(-1e38f), f2bits(1e-38f),
    0x00000001u,  // smallest positive denormal
    0x007FFFFFu,  // largest positive denormal
    0x807FFFFFu,  // largest negative denormal
    0x00800000u,  // smallest positive normal
    0x7F800000u,  // +Inf
    0xFF800000u,  // -Inf
    0x7FC00000u,  // quiet NaN
    0x7F800001u,  // signalling NaN bit pattern
    0xFFC00001u,  // negative NaN with payload
};

/// One warp's a, b and c source rows.
using OperandRows = std::array<std::array<u32, 32>, 3>;

/// Every (a, b) pair of kEdge with c cycling through the edge set too,
/// zero-padded to whole rows, then seeded random rows (raw bit patterns and
/// moderate floats alternately).
std::vector<OperandRows> golden_rows() {
  constexpr u32 n = std::size(kEdge);
  std::vector<OperandRows> rows((n * n + 31) / 32);
  for (u32 t = 0; t < n * n; ++t) {
    const u32 i = t / n, j = t % n;
    OperandRows& row = rows[t / 32];
    row[0][t % 32] = kEdge[i];
    row[1][t % 32] = kEdge[j];
    row[2][t % 32] = kEdge[(i * 7 + j * 3 + 5) % n];
  }
  Rng rng(0x601DB17ull);
  for (u32 r = 0; r < 8; ++r) {
    OperandRows& row = rows.emplace_back();
    for (auto& src : row)
      for (u32& x : src)
        x = r % 2 == 0 ? static_cast<u32>(rng.next_u64())
                       : f2bits(rng.next_float(-100.0f, 100.0f));
  }
  return rows;
}

class GoldenBit : public ::testing::TestWithParam<isa::Op> {};

// Each lane kernel against sim::eval_alu, the way SmCore::execute calls it:
// over every operand row, crossed with guard masks (full, none, one end
// lane, alternating, random), the destination aliasing each source (the
// in-place `r1 = r1 op r2` case), and each source as an immediate splat
// row. A written lane must equal eval_alu on the lane's inputs; a masked
// lane must keep what the destination held (inactive lanes are
// architectural state that snapshots hash).
TEST_P(GoldenBit, LaneKernelMatchesEvalAlu) {
  const isa::Op op = GetParam();
  const auto rows = golden_rows();
  Rng rng(0xA1A5ull + static_cast<u64>(op));
  constexpr u32 kNoSource = 3;
  for (size_t r = 0; r < rows.size(); ++r) {
    const u32 masks[] = {0xFFFFFFFFu, 0u,          1u,
                         0x80000000u, 0x7FFFFFFFu, 0xAAAA5555u,
                         static_cast<u32>(rng.next_u64())};
    // Source `splat` is an immediate, its row filled with one of the row's
    // values; the destination is source `alias`'s row, or a row of its own.
    for (u32 splat = 0; splat <= kNoSource; ++splat) {
      OperandRows in = rows[r];
      if (splat != kNoSource) in[splat].fill(in[splat][r % 32]);
      for (u32 alias = 0; alias <= kNoSource; ++alias) {
        // A destination is a register row, never an immediate's splat row.
        if (alias != kNoSource && alias == splat) continue;
        for (const u32 mask : masks) {
          OperandRows src = in;
          std::array<u32, 32> own;
          for (u32 i = 0; i < 32; ++i) own[i] = 0xDEAD0000u + i;
          u32* d = alias == kNoSource ? own.data() : src[alias].data();
          const std::array<u32, 32> before =
              alias == kNoSource ? own : in[alias];
          sim::blockexec::run_vkernel(op, d, src[0].data(), src[1].data(),
                                      src[2].data(), mask);
          for (u32 i = 0; i < 32; ++i) {
            const bool written = (mask >> i) & 1u;
            ASSERT_EQ(d[i], written ? sim::eval_alu(op, in[0][i], in[1][i],
                                                    in[2][i])
                                    : before[i])
                << isa::op_name(op) << " row " << r << " lane " << i
                << (written ? " (written)" : " (masked)") << " splat "
                << splat << " alias " << alias << std::hex << " mask=0x"
                << mask << " a=0x" << in[0][i] << " b=0x" << in[1][i]
                << " c=0x" << in[2][i];
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAluOps, GoldenBit, ::testing::ValuesIn(kAluOps),
                         [](const auto& info) {
                           return std::string(isa::op_name(info.param));
                         });

// ---- Trace lowering and the process-wide cache -----------------------------

isa::ProgramPtr make_mixed_kernel() {
  using namespace isa;
  KernelBuilder kb("mixed");
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg acc = kb.reg(), addr = kb.reg();
  kb.movi(acc, 3);
  kb.imad(acc, acc, imm(7), gid);
  PredReg p = kb.pred();
  kb.setp(p, CmpOp::kLt, DType::kI32, acc, imm(100));
  kb.selp(acc, gid, acc, p);
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

TEST(BlockExecTrace, LoweringClassifiesAndCountsCorrectly) {
  const isa::ProgramPtr prog = make_mixed_kernel();
  const sim::blockexec::TracePtr trace = sim::blockexec::trace_for(prog);
  ASSERT_EQ(trace->size(), prog->size());

  u32 superops = 0;
  for (u32 pc = 0; pc < trace->size(); ++pc) {
    const SuperOp& s = trace->at(pc);
    const isa::Instruction& ins = prog->at(pc);
    const isa::Op op = ins.op;
    const bool expect_fallback =
        op == isa::Op::kBra || op == isa::Op::kExit || op == isa::Op::kBar ||
        op == isa::Op::kLdg || op == isa::Op::kStg || op == isa::Op::kAtomAdd ||
        op == isa::Op::kLds || op == isa::Op::kSts || op == isa::Op::kNop;
    EXPECT_EQ(!sim::blockexec::lowers(s.form), expect_fallback)
        << "pc " << pc << " op " << isa::op_name(op);
    if (!sim::blockexec::lowers(s.form)) continue;
    superops += 1;

    // Flags must agree with the isa:: classification predicates, and the
    // hazard plan must replay the interpreter's exact check order.
    EXPECT_EQ(s.is_sfu, isa::unit_class(op) == isa::UnitClass::kSfu);
    EXPECT_EQ(s.is_datapath, isa::is_datapath(op));
    EXPECT_EQ(s.writes_gpr, isa::writes_gpr(op));
    EXPECT_EQ(s.writes_pred, isa::writes_pred(op));
    std::vector<std::pair<u16, bool>> want;
    if (ins.guard != isa::kNoPred)
      want.emplace_back(static_cast<u16>(ins.guard), true);
    if (ins.pred_src != isa::kNoPred)
      want.emplace_back(static_cast<u16>(ins.pred_src), true);
    for (const isa::Operand& o : ins.src)
      if (o.is_reg()) want.emplace_back(o.reg, false);
    if (isa::writes_gpr(op)) want.emplace_back(ins.dst, false);
    if (isa::writes_pred(op)) want.emplace_back(ins.dst, true);
    ASSERT_EQ(s.n_hazards, want.size()) << "pc " << pc;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(s.hazards[i].reg, want[i].first) << "pc " << pc << " haz " << i;
      EXPECT_EQ(s.hazards[i].is_pred, want[i].second) << "pc " << pc;
    }
  }
  EXPECT_EQ(trace->num_superops(), superops);
  EXPECT_GT(trace->num_blocks(), 1u);
  EXPECT_GE(trace->num_superops(), trace->num_fused_runs());
  EXPECT_GT(trace->num_fused_runs(), 0u);
  EXPECT_EQ(trace->static_coverage_pct(), superops * 100 / trace->size());
}

TEST(BlockExecTrace, CacheSharesOneTracePerProgramAndExpires) {
  const isa::ProgramPtr prog = make_mixed_kernel();
  const u64 live0 = sim::blockexec::trace_cache_live();
  sim::blockexec::TracePtr a = sim::blockexec::trace_for(prog);
  sim::blockexec::TracePtr b = sim::blockexec::trace_for(prog);
  EXPECT_EQ(a.get(), b.get()) << "same program must share one compiled trace";
  EXPECT_EQ(sim::blockexec::trace_cache_live(), live0 + 1);

  // A different program compiles separately.
  const isa::ProgramPtr other = make_mixed_kernel();
  sim::blockexec::TracePtr c = sim::blockexec::trace_for(other);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(sim::blockexec::trace_cache_live(), live0 + 2);

  // Dropping every owner expires the entry (the cache holds weak refs).
  c.reset();
  EXPECT_EQ(sim::blockexec::trace_cache_live(), live0 + 1);
}

// ---- eval_alu / eval_cmp hard-error path (no more silent zeros) ------------

TEST(ExecutorHardErrorDeathTest, NonAluOpcodeAborts) {
  EXPECT_DEATH(sim::eval_alu(isa::Op::kLdg, 1, 2, 3), "reached the ALU path");
  EXPECT_DEATH(sim::eval_alu(isa::Op::kBra, 0, 0, 0), "reached the ALU path");
}

TEST(ExecutorHardErrorDeathTest, CorruptedCmpEncodingAborts) {
  EXPECT_DEATH(
      sim::eval_cmp(static_cast<isa::CmpOp>(0xEE), isa::DType::kI32, 0, 0),
      "reached the ALU path");
  EXPECT_DEATH(
      sim::eval_cmp(isa::CmpOp::kEq, static_cast<isa::DType>(0xEE), 0, 0),
      "reached the ALU path");
}

// ---- Fuzzed programs -------------------------------------------------------
// Random straight-line ALU/SETP/SELP/S2R programs with guard predicates of
// both polarities, interleaved with per-thread global-memory round-trips
// (register-only -> memory -> register-only transitions).

isa::Instruction& emit_int_op(isa::KernelBuilder& kb, u32 pick, isa::Reg d,
                              isa::Operand a, isa::Operand b, isa::Reg c) {
  switch (pick % 12) {
    case 0: return kb.iadd(d, a, b);
    case 1: return kb.isub(d, a, b);
    case 2: return kb.imul(d, a, b);
    case 3: return kb.imad(d, a, b, c);
    case 4: return kb.imin(d, a, b);
    case 5: return kb.imax(d, a, b);
    case 6: return kb.and_(d, a, b);
    case 7: return kb.or_(d, a, b);
    case 8: return kb.xor_(d, a, b);
    case 9: return kb.shl(d, a, b);
    case 10: return kb.shr(d, a, b);
    default: return kb.sra(d, a, b);
  }
}

isa::Instruction& emit_float_op(isa::KernelBuilder& kb, u32 pick, isa::Reg d,
                                isa::Operand a, isa::Operand b, isa::Reg c) {
  switch (pick % 6) {
    case 0: return kb.fadd(d, a, b);
    case 1: return kb.fsub(d, a, b);
    case 2: return kb.fmul(d, a, b);
    case 3: return kb.ffma(d, a, b, c);
    case 4: return kb.fmin(d, a, b);
    default: return kb.fmax(d, a, b);
  }
}

isa::ProgramPtr build_fuzz_kernel(Rng& rng, u32 data_regs, u32 preds) {
  using namespace isa;
  KernelBuilder kb("bfuzz");
  Reg out = kb.reg(), scratch = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(scratch, 1);
  Reg tid = kb.global_tid_x();

  std::vector<Reg> r(data_regs);
  std::vector<PredReg> p(preds);
  for (u32 i = 0; i < data_regs; ++i) r[i] = kb.reg();
  for (u32 i = 0; i < preds; ++i) p[i] = kb.pred();
  for (u32 i = 0; i < data_regs; ++i) {
    kb.iadd(r[i], tid, imm(static_cast<i32>(i * 11 + 1)));
    kb.imul(r[i], r[i], imm(static_cast<i32>(2 * i + 3)));
    if (i % 2 == 1) kb.i2f(r[i], r[i]);
  }
  for (u32 i = 0; i < preds; ++i) {
    Reg t = kb.reg();
    kb.and_(t, tid, imm(static_cast<i32>(1u << i)));
    kb.setp(p[i], CmpOp::kNe, DType::kI32, t, imm(0));
  }
  Reg saddr = kb.reg();
  kb.imad(saddr, tid, imm(4), scratch);

  for (u32 i = 0; i < 48; ++i) {
    const Reg d = r[rng.next_below(data_regs)];
    const Reg a = r[rng.next_below(data_regs)];
    const Reg c = r[rng.next_below(data_regs)];
    const bool b_imm = rng.next_bool(0.3f);
    const Reg breg = r[rng.next_below(data_regs)];
    const u32 kind = static_cast<u32>(rng.next_below(12));
    const u32 pick = static_cast<u32>(rng.next_below(12));
    Instruction* ins;
    if (kind < 5) {
      Operand b = b_imm ? Operand(immu(static_cast<u32>(rng.next_below(64))))
                        : Operand(breg);
      ins = &emit_int_op(kb, pick, d, a, b, c);
    } else if (kind < 8) {
      Operand b = b_imm ? Operand(fimm(rng.next_float(-2.0f, 2.0f)))
                        : Operand(breg);
      ins = &emit_float_op(kb, pick, d, a, b, c);
    } else if (kind < 9) {
      ins = &kb.setp(p[rng.next_below(preds)],
                     static_cast<CmpOp>(rng.next_below(6)),
                     rng.next_bool(0.5f) ? DType::kF32 : DType::kI32, a,
                     Operand(breg));
    } else if (kind < 10) {
      ins = &kb.selp(d, a, Operand(breg), p[rng.next_below(preds)]);
    } else if (kind < 11) {
      // Global round-trip: forces a block -> fallback -> block transition.
      kb.stg(saddr, a);
      ins = &kb.ldg(d, saddr);
    } else {
      ins = &kb.s2r(d, rng.next_bool(0.5f) ? SReg::kLaneId : SReg::kTidX);
    }
    if (rng.next_bool(0.3f)) {
      const PredReg g = p[rng.next_below(preds)];
      if (rng.next_bool(0.5f))
        ins->guard_ifnot(g);
      else
        ins->guard_if(g);
    }
  }

  Reg base = kb.reg(), addr = kb.reg();
  kb.imul(base, tid, imm(static_cast<i32>(data_regs * 4)));
  kb.iadd(base, base, out);
  for (u32 i = 0; i < data_regs; ++i) {
    kb.iadd(addr, base, imm(static_cast<i32>(i * 4)));
    kb.stg(addr, r[i]);
  }
  kb.exit();
  return kb.build();
}

// ---- One issue gate: compiled records vs the instruction walk --------------
// SmCore gates issue from and executes each pc's compiled record, so a
// wrong record changes what the simulator does with nothing to compare
// against. The walk in tests/issue_gate_walk.h catches it: every program the 19 workloads launch at
// test scale (the programs `verify_kernel --all` analyzes) and the fuzz
// kernels above, with their memory round-trips and guards of both
// polarities, must compile to records that agree with it pc for pc.

TEST(IssueGate, RecordMatchesInstructionWalk) {
  testing::WalkCoverage cov;
  // The programs that need no simulation come first, so a broken record is
  // reported before the workloads run on it. The hand-built kernel adds the
  // atomic no workload issues.
  for (u64 seed = 1; seed < 13; ++seed) {
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 11);
    const isa::ProgramPtr p = build_fuzz_kernel(rng, 6, 4);
    testing::expect_records_match_walk(*p, *sim::blockexec::trace_for(p), cov);
  }
  const isa::ProgramPtr every = testing::make_every_form_kernel();
  testing::expect_records_match_walk(*every, *sim::blockexec::trace_for(every),
                                     cov);
  for (const std::string& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    exp::ScenarioSpec spec;
    spec.workload = name;
    spec.scale = workloads::Scale::kTest;
    spec.seed = 2019;
    spec.redundancy = core::RedundancySpec::baseline();
    std::vector<isa::ProgramPtr> programs;
    const exp::ScenarioResult r = exp::run_scenario(
        spec, 0,
        [&](runtime::Device& dev, workloads::Workload&, core::ExecSession&) {
          for (const runtime::Device::VerifyRecord& rec : dev.verify_reports())
            programs.push_back(rec.program);
        });
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(programs.empty());
    for (const isa::ProgramPtr& p : programs)
      testing::expect_records_match_walk(*p, *sim::blockexec::trace_for(p),
                                         cov);
  }
  // The facts a broken record would get wrong were there to be checked.
  EXPECT_GT(cov.sfu, 0u);
  cov.expect_complete();
}

}  // namespace
}  // namespace higpu

namespace higpu::sim {
namespace {

// ---- Fault-injection goldens ------------------------------------------------
// SmCore computes an ALU/SFU result with its lane kernel and then asks the
// hook once per instruction which bits to flip in the guarded lanes.

/// A kernel whose ALU and SFU ops all write their own source register
/// (d == a, in place), integer and float, for `iters` rounds.
isa::ProgramPtr make_inplace_kernel(u32 iters) {
  using namespace isa;
  KernelBuilder kb("inplace");
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg h = kb.reg(), f = kb.reg(), k = kb.reg();
  kb.mov(h, gid);
  kb.i2f(f, gid);
  kb.movi(k, 0);
  Label loop = kb.label(), end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, k, imm(static_cast<i32>(iters)));
  kb.bra(end).guard_if(fin);
  kb.imad(h, h, imm(33), gid);
  kb.xor_(h, h, k);
  kb.fadd(f, f, fimm(1.0f));
  kb.fsqrt(f, f);
  kb.fmul(f, f, fimm(1.5f));
  kb.iadd(k, k, imm(1));
  kb.bra(loop);
  kb.bind(end);
  Reg bits = kb.reg(), addr = kb.reg();
  kb.f2i(bits, f);
  kb.xor_(h, h, bits);
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, h);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// A kernel whose ALU ops run under partial guard masks: odd lanes take a
/// divergent branch, and each path also issues an op guarded by a
/// predicate that holds on every fourth thread.
isa::ProgramPtr make_divergent_kernel(u32 iters) {
  using namespace isa;
  KernelBuilder kb("divergent");
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg t = kb.reg(), acc = kb.reg(), f = kb.reg(), k = kb.reg();
  PredReg odd = kb.pred(), fourth = kb.pred();
  kb.and_(t, gid, imm(1));
  kb.setp(odd, CmpOp::kNe, DType::kI32, t, imm(0));
  kb.and_(t, gid, imm(3));
  kb.setp(fourth, CmpOp::kEq, DType::kI32, t, imm(2));
  kb.mov(acc, gid);
  kb.movf(f, 2.0f);
  kb.movi(k, 0);
  Label loop = kb.label(), end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, k, imm(static_cast<i32>(iters)));
  kb.bra(end).guard_if(fin);
  Label other = kb.label(), join = kb.label();
  kb.bra(other).guard_if(odd);
  kb.iadd(acc, acc, imm(7));
  kb.fmul(f, f, fimm(1.25f)).guard_if(fourth);
  kb.bra(join);
  kb.bind(other);
  kb.imad(acc, acc, imm(5), k);
  kb.fsqrt(f, f).guard_ifnot(fourth);
  kb.bind(join);
  kb.iadd(k, k, imm(1));
  kb.bra(loop);
  kb.bind(end);
  Reg bits = kb.reg(), addr = kb.reg();
  kb.f2i(bits, f);
  kb.xor_(acc, acc, bits);
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

struct FaultRun {
  Cycle final_cycle = 0;
  u64 corruptions = 0;
  u64 diverted = 0;
  StatSet stats;
  std::vector<u32> memory;
};

FaultRun run_faulted(int scenario) {
  GpuParams params;
  memsys::GlobalStore store;
  Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::SrrsKernelScheduler>());
  fault::FaultInjector inj;
  switch (scenario) {
    case 0: inj.arm_droop(4000, 300, 5); break;
    case 1: inj.arm_transient_sm(2, 3500, 2000, 12); break;
    case 2: inj.arm_permanent_sm(4, 5000, 0); break;
    case 3: inj.arm_scheduler_fault(3100, 2); break;
    case 4: inj.arm_droop(3600, 300, 2); break;
    case 5: inj.arm_transient_sm(2, 3400, 400, 3); break;
    default: break;
  }
  gpu.set_fault_hook(&inj);

  const u32 threads = 1024;
  const memsys::DevPtr out = store.alloc(threads * 4);
  isa::ProgramPtr prog = scenario == 4   ? make_inplace_kernel(40)
                         : scenario == 5 ? make_divergent_kernel(40)
                                         : testing::make_spin_kernel(60);
  gpu.launch(testing::make_launch(std::move(prog), threads, 128,
                                  {out, threads}));

  FaultRun r;
  r.final_cycle = gpu.run_until_idle(100'000'000);
  r.corruptions = inj.corruptions();
  r.diverted = inj.diverted_blocks();
  r.stats = gpu.collect_stats();
  for (u32 w = 0; w < threads; ++w)
    r.memory.push_back(store.read32(out + w * 4));
  return r;
}

/// FNV-1a over a run's output words.
u64 memory_hash(const std::vector<u32>& memory) {
  return ckpt::fnv1a(reinterpret_cast<const u8*>(memory.data()),
                     memory.size() * sizeof(u32));
}

TEST(BlockExecFaults, ScenarioGoldens) {
  // Any change to how results are corrupted must reproduce these.
  // Scenarios 2 and 3 open after the spin kernel's last result on
  // SM 4 and after its last block dispatch, so they pin a plan that never
  // fires. Scenario 4 writes every ALU/SFU result over its own source;
  // scenario 5 corrupts ops under partial guard masks.
  struct Golden {
    Cycle final_cycle;
    u64 corruptions;
    u64 diverted;
    u64 memory_hash;
  };
  const Golden golden[] = {
      {4794, 5504, 0, 0xfb27087acfca41a5ull},
      {4799, 384, 0, 0x76b036968abbe725ull},
      {4799, 0, 0, 0xe7ad6cb1b84e4325ull},
      {4799, 0, 0, 0xe7ad6cb1b84e4325ull},
      {5288, 40992, 0, 0x21c12f89366812f1ull},
      {5102, 4248, 0, 0x1a69231d628c7ad2ull},
  };
  for (int scenario = 0; scenario < 6; ++scenario) {
    const Golden& g = golden[scenario];
    SCOPED_TRACE("fault scenario " + std::to_string(scenario));
    const FaultRun r = run_faulted(scenario);
    EXPECT_EQ(r.final_cycle, g.final_cycle);
    EXPECT_EQ(r.corruptions, g.corruptions);
    EXPECT_EQ(r.diverted, g.diverted);
    EXPECT_EQ(memory_hash(r.memory), g.memory_hash);
  }
}

// ---- Checkpoint/restore mid-run --------------------------------------------

TEST(BlockExecCkpt, ForkBitIdenticalMidRun) {
  for (const std::string& wl : {"hotspot", "bfs"}) {
    exp::ScenarioSpec spec;
    spec.workload = wl;
    const exp::ScenarioResult probe = exp::run_scenario(spec);
    ASSERT_TRUE(probe.ok) << probe.error;
    const Cycle target = probe.stats.get("cycles") / 2;

    exp::SnapshotIo base_io;
    base_io.capture_targets = {target};
    const exp::ScenarioResult base =
        exp::run_scenario(spec, 0, nullptr, nullptr, &base_io);
    ASSERT_TRUE(base.ok) << base.error;
    EXPECT_TRUE(base.deterministic_fields_equal(probe))
        << wl << ": captures perturbed the run";
    ASSERT_NE(base_io.captured[0], nullptr);

    exp::SnapshotIo fork_io;
    fork_io.resume = base_io.captured[0];
    const exp::ScenarioResult fork =
        exp::run_scenario(spec, 0, nullptr, nullptr, &fork_io);
    ASSERT_TRUE(fork.ok) << fork.error;
    EXPECT_TRUE(fork.deterministic_fields_equal(probe))
        << wl << ": fork from cycle " << base_io.captured[0]->cycle
        << " diverged from the from-scratch run";
  }
}

}  // namespace
}  // namespace higpu::sim
