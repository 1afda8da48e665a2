#include "isa/program.h"

#include <sstream>

#include "isa/opcode.h"

namespace higpu::isa {

KernelProgram::KernelProgram(std::string name, std::vector<Instruction> code,
                             u16 num_regs, u16 num_preds, u32 shared_bytes,
                             u32 num_params)
    : name_(std::move(name)),
      code_(std::move(code)),
      num_regs_(num_regs),
      num_preds_(num_preds),
      shared_bytes_(shared_bytes),
      num_params_(num_params) {}

u32 KernelProgram::static_count(UnitClass uc) const {
  u32 n = 0;
  for (const Instruction& ins : code_)
    if (unit_class(ins.op) == uc) ++n;
  return n;
}

namespace {

std::string operand_str(const Operand& o) {
  std::ostringstream s;
  if (o.is_reg()) {
    s << "r" << o.reg;
  } else if (o.is_imm()) {
    s << "0x" << std::hex << o.imm;
  }
  return s.str();
}

}  // namespace

std::string disassemble(const Instruction& ins, Pc pc) {
  std::ostringstream s;
  s << pc << ":\t";
  if (ins.guard != kNoPred) s << "@" << (ins.guard_neg ? "!" : "") << "p" << ins.guard << " ";
  s << op_name(ins.op);
  if (!is_declared(ins.op)) return s.str();
  const OpInfo& info = op_info(ins.op);
  switch (info.form) {
    case Form::kS2r:
      s << " r" << ins.dst << ", %" << sreg_name(ins.sreg);
      break;
    case Form::kLdp:
      s << " r" << ins.dst << ", param[" << ins.src[0].imm << "]";
      break;
    case Form::kSetp:
      s << "." << cmp_name(ins.cmp) << " p" << ins.dst << ", "
        << operand_str(ins.src[0]) << ", " << operand_str(ins.src[1]);
      break;
    case Form::kSelp:
      s << " r" << ins.dst << ", " << operand_str(ins.src[0]) << ", "
        << operand_str(ins.src[1]) << ", p" << ins.pred_src;
      break;
    case Form::kBranch:
      s << " " << ins.target << " (reconv " << ins.reconv_pc << ")";
      break;
    case Form::kExit:
    case Form::kBar:
    case Form::kNop:
      break;
    case Form::kGlobal:
    case Form::kShared:
      // ldg/lds r, [a+o]; stg/sts [a+o], v; atom.add r, [a+o], v
      s << " ";
      if (info.writeback == Writeback::kGpr) s << "r" << ins.dst << ", ";
      s << "[" << operand_str(ins.src[0]) << "+" << ins.mem_offset << "]";
      if (info.nsrc == 2) s << ", " << operand_str(ins.src[1]);
      break;
    case Form::kAlu:
      s << " r" << ins.dst;
      for (const Operand& o : ins.src) {
        if (!o.present()) break;
        s << ", " << operand_str(o);
      }
      break;
  }
  return s.str();
}

std::string KernelProgram::disassemble() const {
  std::ostringstream s;
  s << "// kernel " << name_ << ": regs=" << num_regs_
    << " preds=" << num_preds_ << " shared=" << shared_bytes_
    << "B params=" << num_params_ << "\n";
  for (Pc pc = 0; pc < code_.size(); ++pc)
    s << isa::disassemble(code_[pc], pc) << "\n";
  return s.str();
}

}  // namespace higpu::isa
