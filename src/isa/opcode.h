// Opcode and enum definitions for the higpu kernel ISA.
//
// The ISA is a small PTX/SASS-like register machine: 32-bit general-purpose
// registers, 1-bit predicate registers, predicated execution, explicit
// branches with IPDOM reconvergence computed at program-finalize time, and
// separate global/shared memory access instructions.
#pragma once

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

/// Unit an opcode executes on.
UnitClass unit_class(Op op);

/// True for instructions that read or write global memory.
bool is_global_mem(Op op);
/// True for instructions that read or write shared memory.
bool is_shared_mem(Op op);
/// True if the instruction writes a general-purpose destination register.
bool writes_gpr(Op op);
/// True for instructions whose result flows through the SP/SFU datapath and
/// is therefore exposed to datapath fault injection (and relevant for
/// temporal-diversity analysis).
bool is_datapath(Op op);
/// True if the instruction writes a predicate register.
bool writes_pred(Op op);

/// Mnemonic for disassembly.
const char* op_name(Op op);
const char* sreg_name(SReg sreg);
const char* cmp_name(CmpOp cmp);

}  // namespace higpu::isa
