// Block-compiled execution engine tests.
//
// The contract under test: ExecMode::kBlock is a pure dispatch-cost
// optimization — bit-identical to the per-instruction interpreter in
// results, cycle counts, stall classification, statistics, trace records,
// fault corruption and snapshots. Layers: (1) golden-bit lane kernels vs
// sim::eval_alu across IEEE-754 / integer edge inputs, (2) trace-lowering
// and cache properties, (3) fuzzed-program interp-vs-block equivalence
// instruction-for-instruction, (4) the 19-workload suite across engines and
// redundancy, (5) fault-injection equivalence, (6) checkpoint/restore
// mid-run including cross-mode restore, (7) the eval_alu hard-error path,
// (8) every pc's gate record, which both modes issue from, against an
// instruction walk.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <set>
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

class GoldenBit : public ::testing::TestWithParam<isa::Op> {};

TEST_P(GoldenBit, VectorKernelMatchesEvalAluOnEdgeInputs) {
  const isa::Op op = GetParam();
  constexpr u32 n = std::size(kEdge);

  // All (a, b) pairs, with c cycling through the edge set too.
  std::vector<std::array<u32, 3>> triples;
  for (u32 i = 0; i < n; ++i)
    for (u32 j = 0; j < n; ++j)
      triples.push_back({kEdge[i], kEdge[j], kEdge[(i * 7 + j * 3 + 5) % n]});
  while (triples.size() % 32 != 0) triples.push_back({0, 0, 0});

  for (size_t base = 0; base < triples.size(); base += 32) {
    alignas(64) u32 a[32], b[32], c[32], d[32];
    for (u32 lane = 0; lane < 32; ++lane) {
      a[lane] = triples[base + lane][0];
      b[lane] = triples[base + lane][1];
      c[lane] = triples[base + lane][2];
    }
    sim::blockexec::run_vkernel(op, d, a, b, c, 0xFFFFFFFFu);
    for (u32 lane = 0; lane < 32; ++lane)
      ASSERT_EQ(d[lane], sim::eval_alu(op, a[lane], b[lane], c[lane]))
          << isa::op_name(op) << " lane " << lane << " a=0x" << std::hex
          << a[lane] << " b=0x" << b[lane] << " c=0x" << c[lane];
  }
}

INSTANTIATE_TEST_SUITE_P(AllAluOps, GoldenBit, ::testing::ValuesIn(kAluOps),
                         [](const auto& info) {
                           return std::string(isa::op_name(info.param));
                         });

TEST(BlockExecKernels, MaskedLanesAreNeverWritten) {
  // Inactive lanes hold architectural state (snapshots hash them); a lane
  // kernel must not touch them even with garbage inputs in those lanes.
  for (u32 mask : {0u, 1u, 0xAAAA5555u, 0x7FFFFFFFu, 0x80000000u}) {
    u32 a[32], b[32], c[32], d[32];
    for (u32 i = 0; i < 32; ++i) {
      a[i] = kEdge[i % std::size(kEdge)];
      b[i] = kEdge[(i + 9) % std::size(kEdge)];
      c[i] = kEdge[(i + 17) % std::size(kEdge)];
      d[i] = 0xDEAD0000u + i;
    }
    sim::blockexec::run_vkernel(isa::Op::kFfma, d, a, b, c, mask);
    for (u32 i = 0; i < 32; ++i) {
      if ((mask >> i) & 1u)
        EXPECT_EQ(d[i], sim::eval_alu(isa::Op::kFfma, a[i], b[i], c[i]));
      else
        EXPECT_EQ(d[i], 0xDEAD0000u + i) << "inactive lane " << i << " written";
    }
  }
}

TEST(BlockExecKernels, InPlaceDestinationAliasingIsSafe) {
  // r1 = r1 op r2 hands the same row as d and a; elementwise kernels must
  // tolerate that.
  u32 a[32], b[32], ref[32];
  for (u32 i = 0; i < 32; ++i) {
    a[i] = i * 2654435761u;
    b[i] = kEdge[i % std::size(kEdge)];
    ref[i] = sim::eval_alu(isa::Op::kIadd, a[i], b[i], 0);
  }
  sim::blockexec::run_vkernel(isa::Op::kIadd, a, a, b, b, 0xFFFFFFFFu);
  for (u32 i = 0; i < 32; ++i) EXPECT_EQ(a[i], ref[i]);
}

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

// ---- Interp vs block: shared machinery -------------------------------------

/// Stats that exist only under the block engine (compile metadata and
/// dispatch counters). Everything else must match interp bit-for-bit.
bool is_block_only_stat(const std::string& name) {
  static const std::set<std::string> kNames = {
      "block_exec_hits",   "block_fallback_exits", "blocks_compiled",
      "superops_compiled", "block_fused_runs",     "block_static_insns"};
  return kNames.count(name) != 0;
}

StatSet filter_block_stats(const StatSet& s) {
  StatSet out;
  for (const auto& [name, value] : s.entries())
    if (!is_block_only_stat(name)) out.set(name, value);
  return out;
}

void expect_same_stats_modulo_block(const StatSet& interp, const StatSet& block,
                                    const std::string& what) {
  const auto ie = filter_block_stats(interp).entries();
  const auto be = filter_block_stats(block).entries();
  ASSERT_EQ(ie.size(), be.size()) << what << ": stat-set shape differs";
  for (size_t i = 0; i < ie.size(); ++i) {
    EXPECT_EQ(ie[i].first, be[i].first) << what << ": stat name differs";
    EXPECT_EQ(ie[i].second, be[i].second)
        << what << ": counter '" << ie[i].first << "' differs";
  }
}

struct TraceLog : sim::ITraceSink {
  std::vector<std::array<u64, 6>> recs;
  void record(u32 launch_id, u32 block_linear, u32 warp_in_block, u64 instr_seq,
              u32 sm, Cycle cycle) override {
    recs.push_back(
        {launch_id, block_linear, warp_in_block, instr_seq, sm, cycle});
  }
};

// ---- Fuzzed-program property test ------------------------------------------
// Random straight-line ALU/SETP/SELP/S2R programs with guard predicates of
// both polarities, interleaved with per-thread global-memory round-trips
// (block -> fallback -> block transitions). Interp and block runs must agree
// on every traced instruction instance, the final memory image, the cycle
// count and the statistics.

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

struct FuzzRun {
  std::vector<u32> memory;
  Cycle final_cycle = 0;
  StatSet stats;
  std::vector<std::array<u64, 6>> trace;
};

FuzzRun run_fuzz(const isa::ProgramPtr& prog, sim::ExecMode mode, u32 threads,
                 u32 data_regs) {
  memsys::GlobalStore store;
  sim::GpuParams params;
  params.exec_mode = mode;
  sim::Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  TraceLog log;
  gpu.set_trace_sink(&log);
  const memsys::DevPtr out = store.alloc(threads * data_regs * 4);
  const memsys::DevPtr scratch = store.alloc(threads * 4);
  gpu.launch(testing::make_launch(prog, threads, 32, {out, scratch}));

  FuzzRun r;
  r.final_cycle = gpu.run_until_idle(20'000'000);
  r.stats = gpu.collect_stats();
  r.trace = std::move(log.recs);
  for (u32 w = 0; w < threads * data_regs; ++w)
    r.memory.push_back(store.read32(out + w * 4));
  return r;
}

class BlockExecFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(BlockExecFuzz, BlockMatchesInterpInstructionForInstruction) {
  constexpr u32 kDataRegs = 6, kPreds = 4, kThreads = 96;
  Rng rng(GetParam() * 0x2545F4914F6CDD1Dull + 11);
  const isa::ProgramPtr prog = build_fuzz_kernel(rng, kDataRegs, kPreds);

  const FuzzRun interp =
      run_fuzz(prog, sim::ExecMode::kInterp, kThreads, kDataRegs);
  const FuzzRun block =
      run_fuzz(prog, sim::ExecMode::kBlock, kThreads, kDataRegs);

  EXPECT_EQ(interp.memory, block.memory) << "seed " << GetParam();
  EXPECT_EQ(interp.final_cycle, block.final_cycle) << "seed " << GetParam();
  expect_same_stats_modulo_block(interp.stats, block.stats,
                                 "fuzz seed " + std::to_string(GetParam()));
  // Instruction-for-instruction: every traced datapath instance — identity
  // (launch, block, warp, seq) — issues on the same SM at the same cycle.
  ASSERT_EQ(interp.trace.size(), block.trace.size());
  for (size_t i = 0; i < interp.trace.size(); ++i)
    ASSERT_EQ(interp.trace[i], block.trace[i]) << "trace record " << i;
  // The block run must actually use the block path, and its two dispatch
  // counters must partition the issued-instruction count.
  EXPECT_GT(block.stats.get("block_exec_hits"), 0u);
  EXPECT_EQ(block.stats.get("block_exec_hits") +
                block.stats.get("block_fallback_exits"),
            block.stats.get("instructions"));
  EXPECT_FALSE(interp.stats.has("block_exec_hits"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockExecFuzz, ::testing::Range<u64>(1, 13));

// ---- One issue gate: compiled records vs the instruction walk --------------
// SmCore gates issue from each pc's compiled record in both exec modes, so
// the block/interp equivalence suites cannot catch a wrong record. The walk
// in tests/issue_gate_walk.h can: every program the 19 workloads launch at
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

// ---- Workload-level equivalence: {dense,event} x {interp,block} x N --------

namespace higpu::workloads {
namespace {

struct ModeArtifacts {
  Cycle kernel_cycles = 0;
  NanoSec elapsed_ns = 0;
  bool verified = false;
  bool matched = false;
  StatSet stats;
  std::vector<sim::BlockRecord> records;
};

ModeArtifacts run_workload_mode(const std::string& name, sim::ExecMode mode,
                                sim::SimEngine engine,
                                const core::RedundancySpec& redundancy) {
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.scale = Scale::kTest;
  spec.seed = 2019;
  spec.gpu.engine = engine;
  spec.gpu.exec_mode = mode;
  spec.policy = sched::Policy::kSrrs;
  spec.redundancy = redundancy;

  ModeArtifacts a;
  const exp::ScenarioResult r = exp::run_scenario(
      spec, 0, [&](runtime::Device& dev, Workload&, core::ExecSession&) {
        a.records = dev.gpu().block_records();
      });
  EXPECT_TRUE(r.ok) << r.error;
  a.kernel_cycles = r.kernel_cycles;
  a.elapsed_ns = r.elapsed_ns;
  a.verified = r.verified;
  a.matched = r.dcls_match;
  a.stats = r.stats;
  return a;
}

void expect_block_equals_interp(const std::string& workload,
                                sim::SimEngine engine,
                                const core::RedundancySpec& redundancy) {
  const ModeArtifacts interp =
      run_workload_mode(workload, sim::ExecMode::kInterp, engine, redundancy);
  const ModeArtifacts block =
      run_workload_mode(workload, sim::ExecMode::kBlock, engine, redundancy);
  EXPECT_TRUE(interp.verified);
  EXPECT_TRUE(block.verified);
  EXPECT_TRUE(interp.matched);
  EXPECT_TRUE(block.matched);
  EXPECT_EQ(interp.kernel_cycles, block.kernel_cycles)
      << workload << ": cycle counts differ";
  EXPECT_EQ(interp.elapsed_ns, block.elapsed_ns)
      << workload << ": wall-clock model differs";
  higpu::expect_same_stats_modulo_block(interp.stats, block.stats, workload);
  ASSERT_EQ(interp.records.size(), block.records.size());
  for (size_t i = 0; i < interp.records.size(); ++i) {
    EXPECT_EQ(interp.records[i].sm, block.records[i].sm);
    EXPECT_EQ(interp.records[i].dispatch_cycle,
              block.records[i].dispatch_cycle);
    EXPECT_EQ(interp.records[i].end_cycle, block.records[i].end_cycle);
  }
  // Dispatch accounting invariants of the block engine.
  EXPECT_EQ(block.stats.get("block_exec_hits") +
                block.stats.get("block_fallback_exits"),
            block.stats.get("instructions"))
      << workload;
  EXPECT_GT(block.stats.get("block_exec_hits"), 0u) << workload;
  EXPECT_GT(block.stats.get("blocks_compiled"), 0u) << workload;
}

class WorkloadBlockEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(WorkloadBlockEquivalence, EventEngineDclsBitIdentical) {
  expect_block_equals_interp(GetParam(), sim::SimEngine::kEvent,
                             core::RedundancySpec::dcls());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadBlockEquivalence,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '+' || c == '-') c = '_';
                           return name;
                         });

TEST(WorkloadBlockEquivalenceDense, DenseEngineBitIdentical) {
  for (const std::string& wl : {"hotspot", "bfs", "lud"})
    expect_block_equals_interp(wl, sim::SimEngine::kDense,
                               core::RedundancySpec::dcls());
}

TEST(WorkloadBlockEquivalenceRedundancy, BaselineAndTmrBitIdentical) {
  for (const std::string& wl : {"hotspot", "bfs", "lud"}) {
    expect_block_equals_interp(wl, sim::SimEngine::kEvent,
                               core::RedundancySpec::baseline());
    expect_block_equals_interp(wl, sim::SimEngine::kEvent,
                               core::RedundancySpec::tmr());
  }
}

}  // namespace
}  // namespace higpu::workloads

namespace higpu::sim {
namespace {

// ---- Fault-injection equivalence -------------------------------------------
// Both engines compute ALU/SFU results on their normal path and then ask the
// hook once per instruction which bits to flip in the guarded lanes, so the
// corruptions, cycles and memory must match the interpreter exactly.

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

FaultRun run_faulted_mode(ExecMode mode, int scenario) {
  GpuParams params;
  params.exec_mode = mode;
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

TEST(BlockExecFaults, CorruptionSequenceIdenticalToInterp) {
  for (int scenario = 0; scenario < 4; ++scenario) {
    SCOPED_TRACE("fault scenario " + std::to_string(scenario));
    const FaultRun interp = run_faulted_mode(ExecMode::kInterp, scenario);
    const FaultRun block = run_faulted_mode(ExecMode::kBlock, scenario);
    EXPECT_EQ(interp.final_cycle, block.final_cycle);
    EXPECT_EQ(interp.corruptions, block.corruptions);
    EXPECT_EQ(interp.diverted, block.diverted);
    EXPECT_EQ(interp.memory, block.memory);
    higpu::expect_same_stats_modulo_block(interp.stats, block.stats,
                                          "faulted run");
  }
}

/// FNV-1a over a run's output words.
u64 memory_hash(const std::vector<u32>& memory) {
  return ckpt::fnv1a(reinterpret_cast<const u8*>(memory.data()),
                     memory.size() * sizeof(u32));
}

TEST(BlockExecFaults, ScenarioGoldensInBothModes) {
  // Any change to how results are corrupted must reproduce these in both
  // modes. Scenarios 2 and 3 open after the spin kernel's last result on
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
    for (ExecMode mode : {ExecMode::kInterp, ExecMode::kBlock}) {
      SCOPED_TRACE("fault scenario " + std::to_string(scenario) + ", " +
                   (mode == ExecMode::kBlock ? "block" : "interp"));
      const FaultRun r = run_faulted_mode(mode, scenario);
      EXPECT_EQ(r.final_cycle, g.final_cycle);
      EXPECT_EQ(r.corruptions, g.corruptions);
      EXPECT_EQ(r.diverted, g.diverted);
      EXPECT_EQ(memory_hash(r.memory), g.memory_hash);
    }
  }
}

// ---- Checkpoint/restore mid-run --------------------------------------------

TEST(BlockExecCkpt, BlockModeForkBitIdenticalMidRun) {
  for (const std::string& wl : {"hotspot", "bfs"}) {
    exp::ScenarioSpec spec;
    spec.workload = wl;
    spec.gpu.exec_mode = ExecMode::kBlock;
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

TEST(BlockExecCkpt, CrossModeRestoreIsBitIdenticalOnArchState) {
  // Traces are derived state, so a snapshot captured under the interpreter
  // restores cleanly into a block-mode device (exec_mode is deliberately
  // outside the params fingerprint); the architectural results must match a
  // from-scratch block run. Only the block-only counters differ (the interp
  // snapshot carries their zeros), which is exactly why the comparison
  // filters them.
  exp::ScenarioSpec interp_spec;
  interp_spec.workload = "hotspot";
  interp_spec.gpu.exec_mode = ExecMode::kInterp;
  exp::ScenarioSpec block_spec = interp_spec;
  block_spec.gpu.exec_mode = ExecMode::kBlock;

  const exp::ScenarioResult scratch = exp::run_scenario(block_spec);
  ASSERT_TRUE(scratch.ok) << scratch.error;
  const Cycle target = scratch.stats.get("cycles") / 2;

  exp::SnapshotIo base_io;
  base_io.capture_targets = {target};
  const exp::ScenarioResult base =
      exp::run_scenario(interp_spec, 0, nullptr, nullptr, &base_io);
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_NE(base_io.captured[0], nullptr);

  exp::SnapshotIo fork_io;
  fork_io.resume = base_io.captured[0];
  const exp::ScenarioResult fork =
      exp::run_scenario(block_spec, 0, nullptr, nullptr, &fork_io);
  ASSERT_TRUE(fork.ok) << fork.error;
  EXPECT_TRUE(fork.verified);
  EXPECT_EQ(fork.kernel_cycles, scratch.kernel_cycles);
  EXPECT_EQ(fork.elapsed_ns, scratch.elapsed_ns);
  higpu::expect_same_stats_modulo_block(fork.stats, scratch.stats,
                                        "cross-mode fork");
}

}  // namespace
}  // namespace higpu::sim
