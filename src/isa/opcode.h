// Opcode and enum definitions for the higpu kernel ISA.
//
// The ISA is a small PTX/SASS-like register machine: 32-bit general-purpose
// registers, 1-bit predicate registers, predicated execution, explicit
// branches with IPDOM reconvergence computed at program-finalize time, and
// separate global/shared memory access instructions.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.h"

namespace higpu::isa {

enum class Op : u8 {
  kNop,
  // Register moves and reads of special/parameter state.
  kMov,   // dst = src0
  kS2r,   // dst = special register
  kLdp,   // dst = kernel parameter [imm index in src0]
  // Integer ALU.
  kIadd,  // dst = src0 + src1
  kIsub,  // dst = src0 - src1
  kImul,  // dst = src0 * src1 (low 32 bits)
  kImad,  // dst = src0 * src1 + src2
  kImin,  // dst = min(signed src0, src1)
  kImax,  // dst = max(signed src0, src1)
  kAnd,   // dst = src0 & src1
  kOr,    // dst = src0 | src1
  kXor,   // dst = src0 ^ src1
  kNot,   // dst = ~src0
  kShl,   // dst = src0 << (src1 & 31)
  kShr,   // dst = src0 >> (src1 & 31) logical
  kSra,   // dst = src0 >> (src1 & 31) arithmetic
  // Floating-point ALU (single precision).
  kFadd,
  kFsub,
  kFmul,
  kFfma,  // dst = src0 * src1 + src2
  kFmin,
  kFmax,
  kFabs,
  kFneg,
  // Special-function unit (transcendentals, long-latency).
  kFdiv,
  kFsqrt,
  kFrcp,
  kFexp,  // natural exponent
  kFlog,  // natural logarithm
  kFsin,
  kFcos,
  // Conversions.
  kI2f,  // signed int -> float
  kF2i,  // float -> signed int (truncate)
  // Predicates and selection.
  kSetp,  // pred[dst] = cmp(src0, src1) under dtype
  kSelp,  // dst = pred ? src0 : src1   (pred index in `pred_src`)
  // Control flow.
  kBra,   // branch to `target` (guarded => potentially divergent)
  kExit,  // thread terminates
  // Global memory.
  kLdg,      // dst = mem32[src0 + offset]
  kStg,      // mem32[src0 + offset] = src1
  kAtomAdd,  // dst = old = mem32[src0 + offset]; mem += src1 (integer)
  // Shared memory (per thread block).
  kLds,  // dst = shmem32[src0 + offset]
  kSts,  // shmem32[src0 + offset] = src1
  // Synchronization.
  kBar,  // block-wide barrier
};
constexpr Op enum_last(Op) { return Op::kBar; }

/// Special (read-only) registers exposed through S2R.
enum class SReg : u8 {
  kTidX,
  kTidY,
  kTidZ,
  kCtaIdX,
  kCtaIdY,
  kCtaIdZ,
  kNTidX,   // block dim
  kNTidY,
  kNTidZ,
  kNCtaIdX,  // grid dim
  kNCtaIdY,
  kNCtaIdZ,
  kLaneId,
  kWarpId,
};
constexpr SReg enum_last(SReg) { return SReg::kWarpId; }

/// Comparison operators for SETP.
enum class CmpOp : u8 { kLt, kLe, kGt, kGe, kEq, kNe };
constexpr CmpOp enum_last(CmpOp) { return CmpOp::kNe; }

/// Data interpretation for SETP comparisons.
enum class DType : u8 { kI32, kU32, kF32 };
constexpr DType enum_last(DType) { return DType::kF32; }

/// Execution-unit class an opcode issues to; drives latency/throughput.
enum class UnitClass : u8 {
  kSp,    // simple int/fp ALU pipeline
  kSfu,   // special function unit (div/sqrt/exp/...)
  kMem,   // global/shared load-store unit
  kCtrl,  // branches, exit, barrier (handled in-order by the scheduler)
};

/// Whether an opcode reads `Instruction::pred_src`.
enum class PredSrc : u8 {
  kNone,      // must be kNoPred
  kOptional,  // setp.and input when set
  kRequired,  // selp's selector
};

/// Register file an opcode writes its result to (`Instruction::dst`).
enum class Writeback : u8 { kNone, kGpr, kPred };

/// Memory space an opcode reads or writes.
enum class MemSpace : u8 { kNone, kGlobal, kShared };

/// How SmCore::execute carries an opcode out. The first five forms touch
/// only registers and predicates (blockexec::lowers); every later form
/// reaches memory, control flow or a barrier.
enum class Form : u8 {
  kAlu,     // dst = sim::eval_alu(op, src0, src1, src2)
  kS2r,     // dst = special register
  kLdp,     // dst = kernel parameter
  kSetp,    // pred[dst] = compare
  kSelp,    // dst = predicate select
  kBranch,
  kExit,
  kBar,
  kGlobal,  // global-memory load, store or atomic
  kShared,  // shared-memory load or store
  kNop,
};

/// Everything the verifier, the block compiler and the executor know
/// about one opcode's shape.
struct OpInfo {
  Op op;
  const char* name;  // mnemonic for disassembly and diagnostics
  UnitClass unit;
  u8 nsrc;           // src[] slots read, from src[0]; later slots stay empty
  PredSrc pred_src;
  Writeback writeback;
  bool datapath;     // the result flows through the SP/SFU datapath: datapath
                     // faults corrupt it, and the temporal-diversity
                     // analysis measures it
  MemSpace mem;
  Form form;
};

/// The ISA, one row per opcode in enum order. A new opcode is declared here
/// and nowhere else; only its arithmetic (sim::eval_alu) and, for a new
/// form, its executor live elsewhere.
inline constexpr auto kOpTable = [] {
  using U = UnitClass;
  using P = PredSrc;
  using W = Writeback;
  using M = MemSpace;
  using F = Form;
  const OpInfo rows[] = {
      // op          mnemonic    unit    src  pred_src      writeback datapath  mem         form
      {Op::kNop,     "nop",      U::kSp,   0, P::kNone,     W::kNone, false,    M::kNone,   F::kNop},
      {Op::kMov,     "mov",      U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kS2r,     "s2r",      U::kSp,   0, P::kNone,     W::kGpr,  false,    M::kNone,   F::kS2r},
      {Op::kLdp,     "ldp",      U::kSp,   1, P::kNone,     W::kGpr,  false,    M::kNone,   F::kLdp},
      {Op::kIadd,    "iadd",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kIsub,    "isub",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kImul,    "imul",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kImad,    "imad",     U::kSp,   3, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kImin,    "imin",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kImax,    "imax",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kAnd,     "and",      U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kOr,      "or",       U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kXor,     "xor",      U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kNot,     "not",      U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kShl,     "shl",      U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kShr,     "shr",      U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kSra,     "sra",      U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFadd,    "fadd",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFsub,    "fsub",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFmul,    "fmul",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFfma,    "ffma",     U::kSp,   3, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFmin,    "fmin",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFmax,    "fmax",     U::kSp,   2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFabs,    "fabs",     U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFneg,    "fneg",     U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFdiv,    "fdiv",     U::kSfu,  2, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFsqrt,   "fsqrt",    U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFrcp,    "frcp",     U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFexp,    "fexp",     U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFlog,    "flog",     U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFsin,    "fsin",     U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kFcos,    "fcos",     U::kSfu,  1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kI2f,     "i2f",      U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kF2i,     "f2i",      U::kSp,   1, P::kNone,     W::kGpr,  true,     M::kNone,   F::kAlu},
      {Op::kSetp,    "setp",     U::kSp,   2, P::kOptional, W::kPred, false,    M::kNone,   F::kSetp},
      {Op::kSelp,    "selp",     U::kSp,   2, P::kRequired, W::kGpr,  false,    M::kNone,   F::kSelp},
      {Op::kBra,     "bra",      U::kCtrl, 0, P::kNone,     W::kNone, false,    M::kNone,   F::kBranch},
      {Op::kExit,    "exit",     U::kCtrl, 0, P::kNone,     W::kNone, false,    M::kNone,   F::kExit},
      {Op::kLdg,     "ldg",      U::kMem,  1, P::kNone,     W::kGpr,  false,    M::kGlobal, F::kGlobal},
      {Op::kStg,     "stg",      U::kMem,  2, P::kNone,     W::kNone, false,    M::kGlobal, F::kGlobal},
      {Op::kAtomAdd, "atom.add", U::kMem,  2, P::kNone,     W::kGpr,  false,    M::kGlobal, F::kGlobal},
      {Op::kLds,     "lds",      U::kMem,  1, P::kNone,     W::kGpr,  false,    M::kShared, F::kShared},
      {Op::kSts,     "sts",      U::kMem,  2, P::kNone,     W::kNone, false,    M::kShared, F::kShared},
      {Op::kBar,     "bar.sync", U::kCtrl, 0, P::kNone,     W::kNone, false,    M::kNone,   F::kBar},
  };
  return std::to_array(rows);
}();

static_assert(kOpTable.size() == static_cast<size_t>(enum_last(Op{})) + 1,
              "kOpTable needs exactly one row per Op");
static_assert(
    [] {
      for (size_t i = 0; i < kOpTable.size(); ++i)
        if (static_cast<size_t>(kOpTable[i].op) != i) return false;
      return true;
    }(),
    "kOpTable rows must follow the Op enum order");

/// True for a byte that names an opcode; the verifier refuses any other
/// before the table is read for it.
constexpr bool is_declared(Op op) { return op <= enum_last(Op{}); }

/// The table row of a declared opcode.
constexpr const OpInfo& op_info(Op op) {
  return kOpTable[static_cast<size_t>(op)];
}

constexpr UnitClass unit_class(Op op) { return op_info(op).unit; }
constexpr bool is_global_mem(Op op) {
  return op_info(op).mem == MemSpace::kGlobal;
}
constexpr bool is_shared_mem(Op op) {
  return op_info(op).mem == MemSpace::kShared;
}
constexpr bool writes_gpr(Op op) {
  return op_info(op).writeback == Writeback::kGpr;
}
constexpr bool writes_pred(Op op) {
  return op_info(op).writeback == Writeback::kPred;
}
constexpr bool is_datapath(Op op) { return op_info(op).datapath; }

/// Mnemonic for disassembly; "?" for a byte that names no opcode.
constexpr const char* op_name(Op op) {
  return is_declared(op) ? op_info(op).name : "?";
}

const char* sreg_name(SReg sreg);
const char* cmp_name(CmpOp cmp);

}  // namespace higpu::isa
