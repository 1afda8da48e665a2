#include "isa/opcode.h"

namespace higpu::isa {

const char* sreg_name(SReg sreg) {
  switch (sreg) {
    case SReg::kTidX: return "tid.x";
    case SReg::kTidY: return "tid.y";
    case SReg::kTidZ: return "tid.z";
    case SReg::kCtaIdX: return "ctaid.x";
    case SReg::kCtaIdY: return "ctaid.y";
    case SReg::kCtaIdZ: return "ctaid.z";
    case SReg::kNTidX: return "ntid.x";
    case SReg::kNTidY: return "ntid.y";
    case SReg::kNTidZ: return "ntid.z";
    case SReg::kNCtaIdX: return "nctaid.x";
    case SReg::kNCtaIdY: return "nctaid.y";
    case SReg::kNCtaIdZ: return "nctaid.z";
    case SReg::kLaneId: return "laneid";
    case SReg::kWarpId: return "warpid";
  }
  return "?";
}

const char* cmp_name(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kLt: return "lt";
    case CmpOp::kLe: return "le";
    case CmpOp::kGt: return "gt";
    case CmpOp::kGe: return "ge";
    case CmpOp::kEq: return "eq";
    case CmpOp::kNe: return "ne";
  }
  return "?";
}

}  // namespace higpu::isa
