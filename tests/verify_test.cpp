// Static verifier tests: every diagnostic code is pinned by an adversarial
// trigger + a structurally similar near-miss that must stay clean, the whole
// workload suite must verify with zero errors, and the Device launch gate
// must refuse erroring programs exactly once per (program, grid, block).
//
// Trigger programs are hand-built through the raw KernelProgram constructor
// on purpose: KernelBuilder::build() would reject most of them, and the
// verifier exists precisely for programs that did not come from the builder
// (fuzzers, future binary loaders, corrupted encodings).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "isa/builder.h"
#include "isa/verify/verify.h"
#include "runtime/device.h"
#include "sched/policies.h"
#include "tests/test_kernels.h"
#include "workloads/workload.h"

namespace higpu {
namespace {

using namespace isa;          // NOLINT: instruction factories below read better
using namespace isa::verify;  // NOLINT

// ---- Raw-instruction factories -----------------------------------------------

Instruction mk(Op op) {
  Instruction i;
  i.op = op;
  return i;
}

Operand R(u16 idx) { return Operand(Reg{idx}); }

Instruction I_exit() { return mk(Op::kExit); }
Instruction I_bar() { return mk(Op::kBar); }

Instruction I_mov(u16 dst, Operand a) {
  Instruction i = mk(Op::kMov);
  i.dst = dst;
  i.src[0] = a;
  return i;
}

Instruction I_iadd(u16 dst, Operand a, Operand b) {
  Instruction i = mk(Op::kIadd);
  i.dst = dst;
  i.src[0] = a;
  i.src[1] = b;
  return i;
}

Instruction I_shl(u16 dst, Operand a, Operand b) {
  Instruction i = mk(Op::kShl);
  i.dst = dst;
  i.src[0] = a;
  i.src[1] = b;
  return i;
}

Instruction I_s2r(u16 dst, SReg s) {
  Instruction i = mk(Op::kS2r);
  i.dst = dst;
  i.sreg = s;
  return i;
}

Instruction I_ldp(u16 dst, Operand index) {
  Instruction i = mk(Op::kLdp);
  i.dst = dst;
  i.src[0] = index;
  return i;
}

Instruction I_setp(i16 p, CmpOp c, Operand a, Operand b) {
  Instruction i = mk(Op::kSetp);
  i.dst = static_cast<u16>(p);
  i.cmp = c;
  i.dtype = DType::kI32;
  i.src[0] = a;
  i.src[1] = b;
  return i;
}

Instruction I_selp(u16 dst, Operand a, Operand b, i16 p) {
  Instruction i = mk(Op::kSelp);
  i.dst = dst;
  i.src[0] = a;
  i.src[1] = b;
  i.pred_src = p;
  return i;
}

Instruction I_fdiv(u16 dst, Operand a, Operand b) {
  Instruction i = mk(Op::kFdiv);
  i.dst = dst;
  i.src[0] = a;
  i.src[1] = b;
  return i;
}

Instruction I_bra(Pc target) {
  Instruction i = mk(Op::kBra);
  i.target = target;
  return i;
}

Instruction I_bra_if(Pc target, i16 guard) {
  Instruction i = I_bra(target);
  i.guard = guard;
  return i;
}

Instruction I_sts(Operand addr, Operand value, i32 offset = 0) {
  Instruction i = mk(Op::kSts);
  i.src[0] = addr;
  i.src[1] = value;
  i.mem_offset = offset;
  return i;
}

Instruction I_stg(Operand addr, Operand value) {
  Instruction i = mk(Op::kStg);
  i.src[0] = addr;
  i.src[1] = value;
  return i;
}

/// Hand-built program; the raw constructor never validates.
KernelProgram prog(std::vector<Instruction> code, u16 nregs = 4,
                   u16 npreds = 2, u32 shared = 0, u32 nparams = 0) {
  return KernelProgram("t", std::move(code), nregs, npreds, shared, nparams);
}

/// Unqualified `verify` is ambiguous here (the function vs. the namespace
/// `isa::verify` pulled in by `using namespace isa`); alias it once.
Result vrun(const KernelProgram& p, const LaunchBounds& lb = {}) {
  return isa::verify::verify(p, lb);
}

// ---- Pass 1: structural ---------------------------------------------------

TEST(VerifyStructural, EmptyProgramIsAnError) {
  const Result r = vrun(prog({}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kEmptyProgram));
}

TEST(VerifyStructural, SingleExitIsClean) {
  const Result r = vrun(prog({I_exit()}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.diags.empty());
}

TEST(VerifyStructural, BranchTargetOutsideProgram) {
  const Result r = vrun(prog({I_bra(5), I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadBranchTarget));
}

TEST(VerifyStructural, BranchToLastInstructionIsClean) {
  const Result r = vrun(prog({I_bra(1), I_exit()}));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kBadBranchTarget));
}

TEST(VerifyStructural, FallOffEnd) {
  const Result r = vrun(prog({I_mov(0, imm(1))}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kFallOffEnd));
}

TEST(VerifyStructural, ExitTerminatedProgramIsClean) {
  const Result r = vrun(prog({I_mov(0, imm(1)), I_exit()}));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kFallOffEnd));
}

TEST(VerifyStructural, InfiniteSelfLoopNeverReachesExit) {
  const Result r = vrun(prog({I_bra(0)}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kNoPathToExit));
}

TEST(VerifyStructural, LoopWithGuardedEscapeIsClean) {
  // r0 = 0; do { p0 = r0 >= 3; if (p0) break; } while (true); exit
  const Result r = vrun(prog({
      I_mov(0, imm(0)),
      I_setp(0, CmpOp::kGe, R(0), imm(3)),
      I_bra_if(4, 0),
      I_bra(1),
      I_exit(),
  }));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kNoPathToExit));
}

TEST(VerifyStructural, DeadCodeAfterUnguardedBranchWarns) {
  const Result r = vrun(prog({I_bra(2), I_mov(0, imm(1)), I_exit()}));
  EXPECT_TRUE(r.ok());  // a warning, not an error
  EXPECT_TRUE(r.has(Code::kUnreachableCode));
}

TEST(VerifyStructural, GuardedBranchKeepsFallthroughReachable) {
  const Result r = vrun(prog({
      I_setp(0, CmpOp::kEq, imm(0), imm(0)),
      I_bra_if(3, 0),
      I_mov(0, imm(1)),
      I_exit(),
  }));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kUnreachableCode));
}

TEST(VerifyStructural, GuardedExitIsAnError) {
  std::vector<Instruction> code{I_setp(0, CmpOp::kEq, imm(0), imm(0)),
                                I_exit()};
  code[1].guard = 0;
  const Result r = vrun(prog(std::move(code)));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kGuardedExitOrBar));
}

TEST(VerifyStructural, GuardedBarrierIsAnError) {
  std::vector<Instruction> code{I_setp(0, CmpOp::kEq, imm(0), imm(0)),
                                I_bar(), I_exit()};
  code[1].guard = 0;
  const Result r = vrun(prog(std::move(code)));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kGuardedExitOrBar));
}

TEST(VerifyStructural, UnguardedBarrierIsClean) {
  const Result r = vrun(prog({I_bar(), I_exit()}));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kGuardedExitOrBar));
}

TEST(VerifyStructural, MissingSourceOperand) {
  Instruction add = mk(Op::kIadd);  // no sources at all
  add.dst = 0;
  add.src[0] = imm(1);
  const Result r = vrun(prog({add, I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand));
}

TEST(VerifyStructural, DistinctDefectsAtOnePcAllSurface) {
  // A bare iadd has three distinct kBadOperand defects at pc 0: missing
  // source 0, missing source 1, and no destination. The (pc, code, message)
  // dedup key must keep them apart instead of collapsing them into one.
  const Result r = vrun(prog({mk(Op::kIadd), I_exit()}));
  EXPECT_FALSE(r.ok());
  u32 bad_operands = 0;
  for (const Diag& d : r.diags)
    if (d.pc == 0 && d.code == Code::kBadOperand) ++bad_operands;
  EXPECT_EQ(bad_operands, 3u);
}

TEST(VerifyStructural, MissingDestination) {
  Instruction add = mk(Op::kIadd);
  add.src[0] = imm(1);
  add.src[1] = imm(2);  // dst left as kNoReg
  const Result r = vrun(prog({add, I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand));
}

TEST(VerifyStructural, SelpWithoutPredicateSource) {
  const Result r = vrun(prog({I_selp(0, imm(1), imm(2), kNoPred), I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand));
}

/// fdiv r0, r0, r0 in a one-register program. With `stray` set it also
/// names r60000 in src[2], a slot fdiv does not read; both executors read
/// any operand that is present, here far past the register file.
KernelProgram fdiv_program(bool stray) {
  Instruction div = I_fdiv(0, R(0), R(0));
  if (stray) div.src[2] = R(60000);
  return prog({I_mov(0, fimm(1.0f)), div, I_exit()}, /*nregs=*/1);
}

TEST(VerifyStructural, SourceInASlotTheOpcodeDoesNotRead) {
  const Result r = vrun(fdiv_program(/*stray=*/true));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand)) << r.to_string();
}

TEST(VerifyStructural, SourcesTheOpcodeReadsAreClean) {
  const Result r = vrun(fdiv_program(/*stray=*/false));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.diags.empty()) << r.to_string();
}

TEST(VerifyStructural, PredicateSourceOnAnAluOp) {
  Instruction add = I_iadd(0, imm(1), imm(2));
  add.pred_src = 0;
  const Result r =
      vrun(prog({I_setp(0, CmpOp::kEq, imm(0), imm(0)), add, I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand)) << r.to_string();
}

TEST(VerifyStructural, AluOpWithoutPredicateSourceAndSetpAndAreClean) {
  Instruction setp_and = I_setp(1, CmpOp::kEq, imm(0), imm(0));
  setp_and.pred_src = 0;  // setp.and reads it
  const Result r =
      vrun(prog({I_setp(0, CmpOp::kEq, imm(0), imm(0)), setp_and,
                 I_iadd(0, imm(1), imm(2)), I_exit()}));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.diags.empty()) << r.to_string();
}

TEST(VerifyStructural, UndefinedOpcodeByte) {
  // The table has no row for it, so nothing past this check may read one.
  // (The last declared opcode, bar, is UnguardedBarrierIsClean's program.)
  const Result r = vrun(prog({mk(static_cast<Op>(200)), I_exit()}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadOperand)) << r.to_string();
}

TEST(VerifyStructural, CompleteArithmeticIsClean) {
  const Result r = vrun(prog({I_iadd(0, imm(1), imm(2)), I_exit()}));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kBadOperand));
}

TEST(VerifyStructural, LdpIndexBeyondDeclaredParams) {
  const Result r =
      vrun(prog({I_ldp(0, imm(2)), I_exit()}, 4, 2, 0, /*nparams=*/1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadParamIndex));
}

TEST(VerifyStructural, LdpRegisterIndexIsAnError) {
  const Result r =
      vrun(prog({I_mov(1, imm(0)), I_ldp(0, R(1)), I_exit()}, 4, 2, 0, 1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBadParamIndex));
}

TEST(VerifyStructural, LdpLastDeclaredParamIsClean) {
  const Result r = vrun(prog({I_ldp(0, imm(0)), I_exit()}, 4, 2, 0, 1));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kBadParamIndex));
}

// ---- Pass 2: resource bounds -----------------------------------------------

TEST(VerifyResource, RegisterWriteBeyondFile) {
  const Result r = vrun(prog({I_mov(7, imm(0)), I_exit()}, /*nregs=*/4));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kRegOutOfRange));
}

TEST(VerifyResource, RegisterReadBeyondFile) {
  const Result r = vrun(prog({I_mov(0, R(9)), I_exit()}, /*nregs=*/4));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kRegOutOfRange));
}

TEST(VerifyResource, HighestDeclaredRegisterIsClean) {
  const Result r = vrun(prog({I_mov(3, imm(0)), I_exit()}, /*nregs=*/4));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kRegOutOfRange));
}

TEST(VerifyResource, PredicateWriteBeyondFile) {
  // The PR-6 defect class: setp into a predicate slot past the file, which
  // NDEBUG builds used to execute as a silent neighbor-state overwrite.
  const Result r = vrun(
      prog({I_setp(5, CmpOp::kEq, imm(0), imm(0)), I_exit()}, 4, /*npreds=*/2));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kPredOutOfRange));
}

TEST(VerifyResource, GuardPredicateBeyondFile) {
  const Result r = vrun(prog({I_setp(0, CmpOp::kEq, imm(0), imm(0)),
                                I_bra_if(2, /*guard=*/7), I_exit()},
                               4, /*npreds=*/2));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kPredOutOfRange));
}

TEST(VerifyResource, HighestDeclaredPredicateIsClean) {
  const Result r = vrun(
      prog({I_setp(1, CmpOp::kEq, imm(0), imm(0)), I_exit()}, 4, /*npreds=*/2));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kPredOutOfRange));
}

// ---- Pass 3: dataflow -------------------------------------------------------

TEST(VerifyDataflow, ReadOfNeverWrittenRegister) {
  const Result r = vrun(prog({I_mov(0, R(1)), I_exit()}, /*nregs=*/2));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kUninitRegRead));
}

TEST(VerifyDataflow, ReadAfterWriteIsClean) {
  const Result r =
      vrun(prog({I_mov(1, imm(0)), I_mov(0, R(1)), I_exit()}, /*nregs=*/2));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kUninitRegRead));
}

TEST(VerifyDataflow, ReadOfNeverWrittenPredicate) {
  const Result r =
      vrun(prog({I_selp(0, imm(1), imm(2), 0), I_exit()}, 4, /*npreds=*/1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kUninitPredRead));
}

TEST(VerifyDataflow, GuardOnNeverWrittenPredicate) {
  const Result r = vrun(prog({I_bra_if(1, 0), I_exit()}, 4, /*npreds=*/1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kUninitPredRead));
}

TEST(VerifyDataflow, PredicateReadAfterSetpIsClean) {
  const Result r = vrun(prog({I_setp(0, CmpOp::kEq, imm(0), imm(0)),
                                I_selp(0, imm(1), imm(2), 0), I_exit()},
                               4, /*npreds=*/1));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.has(Code::kUninitPredRead));
}

TEST(VerifyDataflow, WriteOnOnePathOnlyWarns) {
  // if (p0) goto 3; r0 = 1; 3: r1 = r0  <- r0 unset when the branch is taken
  const Result r = vrun(prog({
      I_setp(0, CmpOp::kEq, imm(0), imm(0)),
      I_bra_if(3, 0),
      I_mov(0, imm(1)),
      I_mov(1, R(0)),
      I_exit(),
  }, /*nregs=*/2, /*npreds=*/1));
  EXPECT_TRUE(r.ok());  // a warning: some path does initialize it
  EXPECT_TRUE(r.has(Code::kMaybeUninitRead));
}

TEST(VerifyDataflow, WriteBeforeBranchOnAllPathsIsClean) {
  const Result r = vrun(prog({
      I_mov(0, imm(0)),
      I_setp(0, CmpOp::kEq, imm(0), imm(0)),
      I_bra_if(4, 0),
      I_mov(0, imm(1)),
      I_mov(1, R(0)),
      I_exit(),
  }, /*nregs=*/2, /*npreds=*/1));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kMaybeUninitRead));
}

// ---- Pass 4: barrier safety ---------------------------------------------------

TEST(VerifyBarrier, BarrierUnderTidDivergentBranchDeadlocks) {
  // if (tid < 5) goto 4; bar; 4: exit  -> only some lanes arrive at the bar.
  const Result r = vrun(prog({
      I_s2r(0, SReg::kTidX),
      I_setp(0, CmpOp::kLt, R(0), imm(5)),
      I_bra_if(4, 0),
      I_bar(),
      I_exit(),
  }));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBarrierDivergence));
}

TEST(VerifyBarrier, BarrierUnderUniformBranchIsClean) {
  // Identical shape, but the guard derives from an immediate: every thread
  // of the block computes the same predicate, so the branch is uniform.
  const Result r = vrun(prog({
      I_mov(0, imm(3)),
      I_setp(0, CmpOp::kLt, R(0), imm(5)),
      I_bra_if(4, 0),
      I_bar(),
      I_exit(),
  }));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kBarrierDivergence));
}

TEST(VerifyBarrier, BarrierAtReconvergencePointIsClean) {
  // The branch is tid-divergent, but the bar sits at the IPDOM block where
  // every lane has reconverged — the canonical guarded-work-then-sync shape.
  const Result r = vrun(prog({
      I_s2r(0, SReg::kTidX),
      I_setp(0, CmpOp::kLt, R(0), imm(5)),
      I_bra_if(4, 0),
      I_mov(1, imm(1)),
      I_bar(),
      I_exit(),
  }));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kBarrierDivergence));
}

TEST(VerifyBarrier, TaintPropagatesThroughArithmetic) {
  // The guard is derived from tid through two ALU hops.
  const Result r = vrun(prog({
      I_s2r(0, SReg::kTidX),
      I_iadd(1, R(0), imm(7)),
      I_shl(2, R(1), imm(1)),
      I_setp(0, CmpOp::kLt, R(2), imm(64)),
      I_bra_if(6, 0),
      I_bar(),
      I_exit(),
  }));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kBarrierDivergence));
}

// ---- Pass 5: memory bounds ----------------------------------------------------

TEST(VerifyMemory, StoreEntirelyOutsideSharedSegment) {
  const Result r = vrun(
      prog({I_sts(imm(32), imm(1)), I_exit()}, 4, 2, /*shared=*/16));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kSharedOutOfBounds));
}

TEST(VerifyMemory, LastWordOfSharedSegmentIsClean) {
  const Result r = vrun(
      prog({I_sts(imm(12), imm(1)), I_exit()}, 4, 2, /*shared=*/16));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kSharedOutOfBounds));
}

TEST(VerifyMemory, TidScaledAddressCanOverrunSharedSegment) {
  // addr = tid * 4 with blockDim.x = 8 covers [0, 28]; a 16-byte segment
  // holds only the first four lanes -> partial overrun, warning severity.
  LaunchBounds lb;
  lb.ntid_x = 8;
  const Result r = vrun(prog({
      I_s2r(0, SReg::kTidX),
      I_shl(1, R(0), imm(2)),
      I_sts(R(1), imm(1)),
      I_exit(),
  }, 4, 2, /*shared=*/16), lb);
  EXPECT_TRUE(r.ok());  // some lanes are in bounds: warning, not error
  EXPECT_TRUE(r.has(Code::kSharedMaybeOutOfBounds));
}

TEST(VerifyMemory, TidScaledAddressInsideSegmentIsClean) {
  LaunchBounds lb;
  lb.ntid_x = 8;
  const Result r = vrun(prog({
      I_s2r(0, SReg::kTidX),
      I_shl(1, R(0), imm(2)),
      I_sts(R(1), imm(1)),
      I_exit(),
  }, 4, 2, /*shared=*/32), lb);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kSharedMaybeOutOfBounds));
}

TEST(VerifyMemory, GlobalStoreBeyondDeclaredExtent) {
  LaunchBounds lb;
  lb.global_extent = 512;
  const Result r = vrun(
      prog({I_mov(0, imm(1000)), I_stg(R(0), imm(7)), I_exit()}), lb);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Code::kGlobalOutOfBounds));
}

TEST(VerifyMemory, GlobalStoreInsideExtentIsClean) {
  LaunchBounds lb;
  lb.global_extent = 2048;
  const Result r = vrun(
      prog({I_mov(0, imm(1000)), I_stg(R(0), imm(7)), I_exit()}), lb);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has(Code::kGlobalOutOfBounds));
}

// ---- Reports --------------------------------------------------------------------

TEST(VerifyReport, JsonCarriesStructuredDiagnostics) {
  const Result r = vrun(prog({I_mov(7, imm(0)), I_exit()}, /*nregs=*/4));
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"kernel\":\"t\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"ok\":false"), std::string::npos) << j;
  EXPECT_NE(j.find("\"code\":\"reg-out-of-range\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"severity\":\"error\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"pc\":0"), std::string::npos) << j;
}

TEST(VerifyReport, CleanProgramJsonIsOkWithNoDiags) {
  const Result r = vrun(prog({I_exit()}));
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"ok\":true"), std::string::npos) << j;
  EXPECT_NE(j.find("\"diags\":[]"), std::string::npos) << j;
}

TEST(VerifyReport, DiagnosticsAreSortedByPc) {
  const Result r = vrun(prog({I_mov(9, imm(0)), I_mov(0, R(8)), I_exit()},
                               /*nregs=*/4));
  ASSERT_GE(r.diags.size(), 2u);
  for (size_t i = 1; i < r.diags.size(); ++i)
    EXPECT_LE(r.diags[i - 1].pc, r.diags[i].pc);
}

// ---- KernelBuilder resource accounting -------------------------------------

TEST(BuilderCounts, MatchAllocations) {
  KernelBuilder kb("counts");
  Reg a = kb.reg(), b = kb.reg();
  PredReg p = kb.pred();
  EXPECT_EQ(kb.reg_count(), 2u);
  EXPECT_EQ(kb.pred_count(), 1u);
  kb.mov(a, imm(1));
  kb.mov(b, imm(2));
  kb.setp(p, CmpOp::kEq, DType::kI32, a, b);
  kb.exit();
  const ProgramPtr prog = kb.build();
  EXPECT_EQ(prog->num_regs(), 2u);
  EXPECT_EQ(prog->num_preds(), 1u);
}

TEST(BuilderCounts, RaisedByHandEditedInstructionFields) {
  // Workloads occasionally post-edit emitted instructions; build() must
  // size the register files by what the code references, not just by the
  // allocator's high-water mark — otherwise the launch gate (correctly)
  // refuses the program as out-of-range.
  KernelBuilder kb("hand_edit");
  Reg a = kb.reg();
  kb.mov(a, imm(0)).dst = 7;
  kb.mov(a, imm(1));  // keep r0 written too
  kb.exit();
  const ProgramPtr prog = kb.build();
  EXPECT_EQ(prog->num_regs(), 8u);
  EXPECT_TRUE(vrun(*prog).ok());
}

TEST(BuilderCounts, RegisterBudgetOverflowThrows) {
  KernelBuilder kb("overflow");
  for (int i = 0; i < 255; ++i) kb.reg();
  EXPECT_THROW(kb.reg(), std::logic_error);
}

TEST(BuilderCounts, PredicateBudgetOverflowThrows) {
  KernelBuilder kb("overflow");
  for (int i = 0; i < 8; ++i) kb.pred();
  EXPECT_THROW(kb.pred(), std::logic_error);
}

// ---- Device launch gate ------------------------------------------------------

ProgramPtr bad_program() {
  // mov r0, r1 with r1 never written: an uninit-read error the gate refuses.
  return std::make_shared<KernelProgram>(
      "bad", std::vector<Instruction>{I_mov(0, R(1)), I_exit()},
      /*num_regs=*/2, /*num_preds=*/1, /*shared=*/0, /*num_params=*/0);
}

sim::KernelLaunch bad_launch() {
  sim::KernelLaunch l;
  l.program = bad_program();
  l.grid = {1, 1, 1};
  l.block = {32, 1, 1};
  return l;
}

TEST(LaunchGate, RefusesErroringProgramWithStructuredReport) {
  runtime::Device dev;
  const sim::KernelLaunch l = bad_launch();
  try {
    dev.launch(l);
    FAIL() << "launch gate let an erroring program through";
  } catch (const VerifyError& e) {
    EXPECT_FALSE(e.result().ok());
    EXPECT_TRUE(e.result().has(Code::kUninitRegRead));
    EXPECT_NE(std::string(e.what()).find("uninit-reg-read"),
              std::string::npos);
  }
  EXPECT_EQ(dev.verify_runs(), 1u);

  // A repeat launch is refused from the memo: no second analysis.
  EXPECT_THROW(dev.launch(l), VerifyError);
  EXPECT_EQ(dev.verify_runs(), 1u);
  EXPECT_EQ(dev.verify_memo_hits(), 1u);
}

TEST(LaunchGate, MemoizesPerProgramGridBlock) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
  const ProgramPtr prog = testing::make_store_kernel();
  const memsys::DevPtr out = dev.malloc(64 * 4);
  const sim::KernelLaunch l = testing::make_launch(prog, 64, 64, {out, 64});

  for (int i = 0; i < 5; ++i) dev.launch(l);
  dev.synchronize();
  EXPECT_EQ(dev.verify_runs(), 1u);       // analysis ran exactly once
  EXPECT_EQ(dev.verify_memo_hits(), 4u);  // the rest were free
  ASSERT_EQ(dev.verify_reports().size(), 1u);
  EXPECT_TRUE(dev.verify_reports()[0].result.ok());

  // A different block shape is a new memo key (block dims feed the
  // analysis' tid intervals), so it costs one more analysis.
  dev.launch(testing::make_launch(prog, 64, 32, {out, 64}));
  dev.synchronize();
  EXPECT_EQ(dev.verify_runs(), 2u);
}

TEST(LaunchGate, RefusedProgramsStayPinnedByTheMemo) {
  // The memo is keyed on the program's address, so every record must own a
  // reference that keeps the program alive: a refused program never reaches
  // the Gpu, making the record its only owner once the caller lets go. If
  // the record held a raw pointer instead, the freed address could be
  // recycled by the next same-size allocation and replay a stale verdict.
  runtime::Device dev;
  sim::KernelLaunch l = bad_launch();
  EXPECT_THROW(dev.launch(l), VerifyError);
  const KernelProgram* raw = l.program.get();
  l.program.reset();  // drop the caller's reference
  ASSERT_EQ(dev.verify_reports().size(), 1u);
  const runtime::Device::VerifyRecord& rec = dev.verify_reports()[0];
  ASSERT_EQ(rec.program.get(), raw);
  EXPECT_EQ(rec.program.use_count(), 1);   // sole owner: lifetime pinned
  EXPECT_EQ(rec.program->name(), "bad");   // still safely dereferenceable

  // A second, freshly allocated program with identical shape and dims must
  // get its own analysis — never a replay of the first program's verdict.
  // (With the first program freed, the allocator would be free to hand its
  // address to this one; pinning makes that impossible.)
  EXPECT_THROW(dev.launch(bad_launch()), VerifyError);
  EXPECT_EQ(dev.verify_runs(), 2u);
  EXPECT_EQ(dev.verify_memo_hits(), 0u);
}

TEST(LaunchGate, EveryErrorCodeIsRefusedBeforeItRuns) {
  // One program per error code whose defect would index host memory on the
  // simulator's unchecked paths (code fetch, Warp::reg_at/pred_at, ldp),
  // plus one merely-wrong defect. Each carries no other error code, so the
  // gate refuses it for that code alone.
  struct Case {
    const char* name;
    Code code;
    KernelProgram program;
  };
  const Case cases[] = {
      {"empty-program", Code::kEmptyProgram, prog({})},
      {"bad-branch-target", Code::kBadBranchTarget,
       prog({I_bra(5), I_exit()})},
      {"fall-off-end", Code::kFallOffEnd, prog({I_mov(0, imm(1))})},
      // fdiv names r60000 in a slot it does not read; the executor would
      // read it anyway, far past the one-register file.
      {"bad-operand", Code::kBadOperand, fdiv_program(/*stray=*/true)},
      {"bad-param-index", Code::kBadParamIndex,
       prog({I_ldp(0, imm(2)), I_exit()}, 4, 2, 0, /*nparams=*/1)},
      {"reg-out-of-range", Code::kRegOutOfRange,
       prog({I_mov(7, imm(0)), I_exit()}, /*nregs=*/2)},
      {"pred-out-of-range", Code::kPredOutOfRange,
       prog({I_setp(5, CmpOp::kEq, imm(0), imm(0)), I_exit()}, 4,
            /*npreds=*/2)},
      // Runs in bounds (registers are zero-initialized) but computes a
      // value no redundant copy can be trusted to agree on.
      {"uninit-reg-read", Code::kUninitRegRead,
       prog({I_mov(0, R(1)), I_exit()}, /*nregs=*/2)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Result alone = vrun(c.program);
    for (const Diag& d : alone.diags)
      if (d.severity == Severity::kError)
        EXPECT_EQ(d.code, c.code) << alone.to_string();

    runtime::Device dev;
    dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
    sim::KernelLaunch l;
    l.program = std::make_shared<KernelProgram>(c.program);
    l.params.assign(l.program->num_params(), 0);
    l.grid = {1, 1, 1};
    l.block = {32, 1, 1};
    try {
      dev.launch(l);
      ADD_FAILURE() << "launch gate let a " << c.name << " program through";
      continue;  // running it could index host memory out of bounds
    } catch (const VerifyError& e) {
      EXPECT_TRUE(e.result().has(c.code)) << e.what();
    }
    dev.synchronize();
    EXPECT_EQ(dev.gpu_cycles_consumed(), 0u);
  }
}

TEST(LaunchGate, HostApiMisuseStillThrowsInvalidArgument) {
  // Host-side launch mistakes (no scheduler, missing parameters) are not
  // program defects: they surface as std::invalid_argument from Gpu::launch
  // even in release builds, independent of the static verifier.
  runtime::Device dev;  // no kernel scheduler installed
  const ProgramPtr prog = testing::make_store_kernel();
  EXPECT_THROW(dev.launch(testing::make_launch(prog, 64, 64, {0, 64})),
               std::invalid_argument);

  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
  EXPECT_THROW(dev.launch(testing::make_launch(prog, 64, 64, {})),
               std::invalid_argument);  // program declares 2 params
}

// ---- Whole workload suite verifies clean ---------------------------------------

class WorkloadVerifiesClean : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadVerifiesClean, NoErrorDiagnosticsAcrossTheSuite) {
  exp::ScenarioSpec spec;
  spec.workload = GetParam();
  spec.scale = workloads::Scale::kTest;
  spec.seed = 1;
  spec.redundancy = core::RedundancySpec::baseline();

  u64 runs = 0;
  std::string failures;
  const exp::ScenarioResult r = exp::run_scenario(
      spec, 0,
      [&](runtime::Device& dev, workloads::Workload&, core::ExecSession&) {
        runs = dev.verify_runs();
        for (const runtime::Device::VerifyRecord& rec : dev.verify_reports())
          if (!rec.result.ok()) failures += rec.result.to_string();
      });
  // The scenario ran at all (the launch gate refuses an erroring kernel by
  // throwing inside run_scenario), produced correct output, and
  // every distinct kernel actually went through the analyzer.
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified);
  EXPECT_GE(runs, 1u);
  EXPECT_TRUE(failures.empty()) << failures;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadVerifiesClean,
                         ::testing::ValuesIn(workloads::all_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

}  // namespace
}  // namespace higpu
