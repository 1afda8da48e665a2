// Instruction and operand representation for the higpu kernel ISA.
#pragma once

#include <cassert>

#include "common/fields.h"
#include "common/types.h"
#include "isa/opcode.h"

namespace higpu::isa {

/// Program counter: index into the program's instruction vector.
using Pc = u32;

constexpr u16 kNoReg = 0xFFFF;
constexpr i16 kNoPred = -1;

/// Strongly-typed general-purpose register handle produced by KernelBuilder.
struct Reg {
  u16 idx = kNoReg;
  bool valid() const { return idx != kNoReg; }
};

/// Strongly-typed predicate register handle.
struct PredReg {
  i16 idx = kNoPred;
  bool valid() const { return idx != kNoPred; }
};

enum class OperandKind : u8 { kNone, kReg, kImm };
constexpr OperandKind enum_last(OperandKind) { return OperandKind::kImm; }

/// A source operand: either a register or a 32-bit immediate (raw bits;
/// interpretation — int vs float — is defined by the opcode).
struct Operand {
  OperandKind kind = OperandKind::kNone;
  u16 reg = kNoReg;
  u32 imm = 0;

  Operand() = default;
  // Implicit: registers are the common case in builder call sites.
  Operand(Reg r) : kind(OperandKind::kReg), reg(r.idx) {}  // NOLINT

  static Operand make_imm(u32 bits) {
    Operand o;
    o.kind = OperandKind::kImm;
    o.imm = bits;
    return o;
  }
  bool is_reg() const { return kind == OperandKind::kReg; }
  bool is_imm() const { return kind == OperandKind::kImm; }
  bool present() const { return kind != OperandKind::kNone; }
};

template <FieldsOf<Operand> S, class V>
void visit_fields(S& o, V&& v) {
  v("kind", o.kind);
  v("reg", o.reg);
  v("imm", o.imm);
}

/// Integer immediate operand.
inline Operand imm(i32 v) { return Operand::make_imm(static_cast<u32>(v)); }
inline Operand immu(u32 v) { return Operand::make_imm(v); }
/// Float immediate operand (stored as IEEE-754 bits).
inline Operand fimm(float v) { return Operand::make_imm(f2bits(v)); }

/// One decoded instruction. Kept POD-ish so programs are cheap to copy.
struct Instruction {
  Op op = Op::kNop;

  // Guard predicate: execute lane only if pred[guard] == !guard_neg.
  i16 guard = kNoPred;
  bool guard_neg = false;

  // Destination: GPR index for ALU/loads, predicate index for SETP.
  u16 dst = kNoReg;

  Operand src[3];

  // SETP fields.
  CmpOp cmp = CmpOp::kEq;
  DType dtype = DType::kI32;

  // SELP predicate source; for SETP it is an optional AND input
  // (PTX setp.and: pred[dst] = cmp(a,b) && pred[pred_src]).
  i16 pred_src = kNoPred;

  // S2R source.
  SReg sreg = SReg::kTidX;

  // Branch target (instruction index), resolved at build time.
  Pc target = 0;
  // Reconvergence pc for potentially-divergent branches (filled by finalize).
  Pc reconv_pc = 0;

  // Byte offset added to the address register for memory ops.
  i32 mem_offset = 0;

  /// Attach a guard predicate: execute where pred is true.
  Instruction& guard_if(PredReg p) {
    guard = p.idx;
    guard_neg = false;
    return *this;
  }
  /// Attach a negated guard predicate: execute where pred is false.
  Instruction& guard_ifnot(PredReg p) {
    guard = p.idx;
    guard_neg = true;
    return *this;
  }
};

template <FieldsOf<Instruction> S, class V>
void visit_fields(S& i, V&& v) {
  v("op", i.op);
  v("guard", i.guard);
  v("guard_neg", i.guard_neg);
  v("dst", i.dst);
  for (auto& o : i.src) v("src", o);
  v("cmp", i.cmp);
  v("dtype", i.dtype);
  v("pred_src", i.pred_src);
  v("sreg", i.sreg);
  v("target", i.target);
  v("reconv_pc", i.reconv_pc);
  v("mem_offset", i.mem_offset);
}

}  // namespace higpu::isa
