#include "isa/builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "isa/cfg.h"

namespace higpu::isa {

namespace {
constexpr Pc kUnbound = 0xFFFFFFFF;
}

KernelBuilder::KernelBuilder(std::string name) : name_(std::move(name)) {}

Reg KernelBuilder::reg() {
  // Always-on budget check (formerly an NDEBUG-masked assert): handing out
  // an over-budget handle would silently corrupt a neighboring thread's
  // register file at runtime — the PR-6 masked-assert defect class.
  if (next_reg_ >= 255)
    throw std::logic_error("kernel '" + name_ + "': register budget exceeded");
  return Reg{next_reg_++};
}

PredReg KernelBuilder::pred() {
  if (next_pred_ >= 8)
    throw std::logic_error("kernel '" + name_ + "': predicate budget exceeded");
  return PredReg{next_pred_++};
}

Label KernelBuilder::label() {
  Label l{static_cast<u32>(label_pc_.size())};
  label_pc_.push_back(kUnbound);
  return l;
}

void KernelBuilder::bind(Label l) {
  assert(l.valid() && l.id < label_pc_.size());
  assert(label_pc_[l.id] == kUnbound && "label bound twice");
  label_pc_[l.id] = here();
}

Instruction& KernelBuilder::emit(Instruction ins) {
  assert(!built_);
  code_.push_back(ins);
  return code_.back();
}

Instruction& KernelBuilder::alu2(Op op, Reg d, Operand a, Operand b) {
  Instruction ins;
  ins.op = op;
  ins.dst = d.idx;
  ins.src[0] = a;
  ins.src[1] = b;
  return emit(ins);
}

Instruction& KernelBuilder::alu3(Op op, Reg d, Operand a, Operand b, Operand c) {
  Instruction ins;
  ins.op = op;
  ins.dst = d.idx;
  ins.src[0] = a;
  ins.src[1] = b;
  ins.src[2] = c;
  return emit(ins);
}

Instruction& KernelBuilder::mov(Reg d, Operand a) {
  Instruction ins;
  ins.op = Op::kMov;
  ins.dst = d.idx;
  ins.src[0] = a;
  return emit(ins);
}

Instruction& KernelBuilder::ldp(Reg d, u32 param_index) {
  Instruction ins;
  ins.op = Op::kLdp;
  ins.dst = d.idx;
  ins.src[0] = immu(param_index);
  if (param_index + 1 > max_param_) max_param_ = param_index + 1;
  return emit(ins);
}

Instruction& KernelBuilder::s2r(Reg d, SReg s) {
  Instruction ins;
  ins.op = Op::kS2r;
  ins.dst = d.idx;
  ins.sreg = s;
  return emit(ins);
}

Instruction& KernelBuilder::iadd(Reg d, Operand a, Operand b) { return alu2(Op::kIadd, d, a, b); }
Instruction& KernelBuilder::isub(Reg d, Operand a, Operand b) { return alu2(Op::kIsub, d, a, b); }
Instruction& KernelBuilder::imul(Reg d, Operand a, Operand b) { return alu2(Op::kImul, d, a, b); }
Instruction& KernelBuilder::imad(Reg d, Operand a, Operand b, Operand c) { return alu3(Op::kImad, d, a, b, c); }
Instruction& KernelBuilder::imin(Reg d, Operand a, Operand b) { return alu2(Op::kImin, d, a, b); }
Instruction& KernelBuilder::imax(Reg d, Operand a, Operand b) { return alu2(Op::kImax, d, a, b); }
Instruction& KernelBuilder::and_(Reg d, Operand a, Operand b) { return alu2(Op::kAnd, d, a, b); }
Instruction& KernelBuilder::or_(Reg d, Operand a, Operand b) { return alu2(Op::kOr, d, a, b); }
Instruction& KernelBuilder::xor_(Reg d, Operand a, Operand b) { return alu2(Op::kXor, d, a, b); }
Instruction& KernelBuilder::not_(Reg d, Operand a) { return alu2(Op::kNot, d, a, Operand{}); }
Instruction& KernelBuilder::shl(Reg d, Operand a, Operand b) { return alu2(Op::kShl, d, a, b); }
Instruction& KernelBuilder::shr(Reg d, Operand a, Operand b) { return alu2(Op::kShr, d, a, b); }
Instruction& KernelBuilder::sra(Reg d, Operand a, Operand b) { return alu2(Op::kSra, d, a, b); }

Instruction& KernelBuilder::fadd(Reg d, Operand a, Operand b) { return alu2(Op::kFadd, d, a, b); }
Instruction& KernelBuilder::fsub(Reg d, Operand a, Operand b) { return alu2(Op::kFsub, d, a, b); }
Instruction& KernelBuilder::fmul(Reg d, Operand a, Operand b) { return alu2(Op::kFmul, d, a, b); }
Instruction& KernelBuilder::ffma(Reg d, Operand a, Operand b, Operand c) { return alu3(Op::kFfma, d, a, b, c); }
Instruction& KernelBuilder::fmin(Reg d, Operand a, Operand b) { return alu2(Op::kFmin, d, a, b); }
Instruction& KernelBuilder::fmax(Reg d, Operand a, Operand b) { return alu2(Op::kFmax, d, a, b); }
Instruction& KernelBuilder::fabs_(Reg d, Operand a) { return alu2(Op::kFabs, d, a, Operand{}); }
Instruction& KernelBuilder::fneg(Reg d, Operand a) { return alu2(Op::kFneg, d, a, Operand{}); }
Instruction& KernelBuilder::fdiv(Reg d, Operand a, Operand b) { return alu2(Op::kFdiv, d, a, b); }
Instruction& KernelBuilder::fsqrt(Reg d, Operand a) { return alu2(Op::kFsqrt, d, a, Operand{}); }
Instruction& KernelBuilder::frcp(Reg d, Operand a) { return alu2(Op::kFrcp, d, a, Operand{}); }
Instruction& KernelBuilder::fexp(Reg d, Operand a) { return alu2(Op::kFexp, d, a, Operand{}); }
Instruction& KernelBuilder::flog(Reg d, Operand a) { return alu2(Op::kFlog, d, a, Operand{}); }
Instruction& KernelBuilder::fsin(Reg d, Operand a) { return alu2(Op::kFsin, d, a, Operand{}); }
Instruction& KernelBuilder::fcos(Reg d, Operand a) { return alu2(Op::kFcos, d, a, Operand{}); }
Instruction& KernelBuilder::i2f(Reg d, Operand a) { return alu2(Op::kI2f, d, a, Operand{}); }
Instruction& KernelBuilder::f2i(Reg d, Operand a) { return alu2(Op::kF2i, d, a, Operand{}); }

Instruction& KernelBuilder::setp(PredReg p, CmpOp c, DType t, Operand a, Operand b) {
  Instruction ins;
  ins.op = Op::kSetp;
  ins.dst = static_cast<u16>(p.idx);
  ins.cmp = c;
  ins.dtype = t;
  ins.src[0] = a;
  ins.src[1] = b;
  return emit(ins);
}

Instruction& KernelBuilder::setp_and(PredReg p, CmpOp c, DType t, Operand a,
                                     Operand b, PredReg q) {
  Instruction& ins = setp(p, c, t, a, b);
  ins.pred_src = q.idx;
  return ins;
}

Instruction& KernelBuilder::selp(Reg d, Operand a, Operand b, PredReg p) {
  Instruction ins;
  ins.op = Op::kSelp;
  ins.dst = d.idx;
  ins.src[0] = a;
  ins.src[1] = b;
  ins.pred_src = p.idx;
  return emit(ins);
}

Instruction& KernelBuilder::bra(Label l) {
  assert(l.valid());
  Instruction ins;
  ins.op = Op::kBra;
  Instruction& ref = emit(ins);
  branch_fixups_.emplace_back(static_cast<Pc>(code_.size() - 1), l.id);
  return ref;
}

Instruction& KernelBuilder::exit() {
  Instruction ins;
  ins.op = Op::kExit;
  return emit(ins);
}

Instruction& KernelBuilder::bar() {
  Instruction ins;
  ins.op = Op::kBar;
  return emit(ins);
}

Instruction& KernelBuilder::ldg(Reg d, Operand addr, i32 byte_offset) {
  Instruction ins;
  ins.op = Op::kLdg;
  ins.dst = d.idx;
  ins.src[0] = addr;
  ins.mem_offset = byte_offset;
  return emit(ins);
}

Instruction& KernelBuilder::stg(Operand addr, Operand value, i32 byte_offset) {
  Instruction ins;
  ins.op = Op::kStg;
  ins.src[0] = addr;
  ins.src[1] = value;
  ins.mem_offset = byte_offset;
  return emit(ins);
}

Instruction& KernelBuilder::lds(Reg d, Operand addr, i32 byte_offset) {
  Instruction ins;
  ins.op = Op::kLds;
  ins.dst = d.idx;
  ins.src[0] = addr;
  ins.mem_offset = byte_offset;
  return emit(ins);
}

Instruction& KernelBuilder::sts(Operand addr, Operand value, i32 byte_offset) {
  Instruction ins;
  ins.op = Op::kSts;
  ins.src[0] = addr;
  ins.src[1] = value;
  ins.mem_offset = byte_offset;
  return emit(ins);
}

Instruction& KernelBuilder::atom_add(Reg d, Operand addr, Operand value, i32 byte_offset) {
  Instruction ins;
  ins.op = Op::kAtomAdd;
  ins.dst = d.idx;
  ins.src[0] = addr;
  ins.src[1] = value;
  ins.mem_offset = byte_offset;
  return emit(ins);
}

Reg KernelBuilder::global_tid_x() {
  Reg tid = reg(), ctaid = reg(), ntid = reg(), gid = reg();
  s2r(tid, SReg::kTidX);
  s2r(ctaid, SReg::kCtaIdX);
  s2r(ntid, SReg::kNTidX);
  imad(gid, ctaid, ntid, tid);
  return gid;
}

Reg KernelBuilder::global_tid_y() {
  Reg tid = reg(), ctaid = reg(), ntid = reg(), gid = reg();
  s2r(tid, SReg::kTidY);
  s2r(ctaid, SReg::kCtaIdY);
  s2r(ntid, SReg::kNTidY);
  imad(gid, ctaid, ntid, tid);
  return gid;
}

void KernelBuilder::guard_range(Reg v, Operand bound, Label exit_label) {
  PredReg p = pred();
  setp(p, CmpOp::kGe, DType::kI32, v, bound);
  bra(exit_label).guard_if(p);
}

ProgramPtr KernelBuilder::build() {
  assert(!built_);
  built_ = true;
  if (code_.empty() || (code_.back().op != Op::kExit &&
                        (code_.back().op != Op::kBra || code_.back().guard != kNoPred))) {
    throw std::logic_error("kernel '" + name_ + "': program must end in exit or unconditional bra");
  }

  // Resolve labels.
  for (auto [pc, label_id] : branch_fixups_) {
    const Pc target = label_pc_[label_id];
    if (target == kUnbound)
      throw std::logic_error("kernel '" + name_ + "': branch to unbound label");
    code_[pc].target = target;
  }

  // Structural validation.
  for (const Instruction& ins : code_) {
    if ((ins.op == Op::kExit || ins.op == Op::kBar) && ins.guard != kNoPred)
      throw std::logic_error("kernel '" + name_ + "': exit/bar must be unguarded");
  }

  // Reconvergence points for potentially-divergent (guarded) branches.
  Cfg cfg(code_);
  for (Pc pc = 0; pc < code_.size(); ++pc) {
    Instruction& ins = code_[pc];
    if (ins.op == Op::kBra)
      ins.reconv_pc = cfg.reconv_pc_for_branch(pc);
  }

  // Accurate register-file sizes: the allocation counters, raised to cover
  // any index an instruction actually references — call sites can hand-edit
  // emitted Instructions through the returned references, and the verifier
  // and per-thread register-file allocation both trust these counts.
  u32 regs = next_reg_;
  u32 preds = next_pred_ > 0 ? static_cast<u32>(next_pred_) : 0;
  for (const Instruction& ins : code_) {
    if (writes_gpr(ins.op) && ins.dst != kNoReg)
      regs = std::max(regs, static_cast<u32>(ins.dst) + 1);
    for (const Operand& o : ins.src)
      if (o.is_reg() && o.reg != kNoReg)
        regs = std::max(regs, static_cast<u32>(o.reg) + 1);
    if (writes_pred(ins.op) && ins.dst != static_cast<u16>(kNoPred))
      preds = std::max(preds, static_cast<u32>(ins.dst) + 1);
    if (ins.guard != kNoPred)
      preds = std::max(preds, static_cast<u32>(ins.guard) + 1);
    if (op_info(ins.op).pred_src != PredSrc::kNone && ins.pred_src != kNoPred)
      preds = std::max(preds, static_cast<u32>(ins.pred_src) + 1);
  }
  const u16 num_regs = static_cast<u16>(regs);
  const u16 num_preds = static_cast<u16>(std::max<u32>(preds, 1));
  return std::make_shared<KernelProgram>(name_, std::move(code_), num_regs,
                                         num_preds, shared_bytes_, max_param_);
}

}  // namespace higpu::isa
