// The issue gate and the functional step as a walk over an
// `isa::Instruction`: the reference that every pc's compiled record
// (sim::blockexec::SuperOp) is checked against. SmCore issues and executes
// from the record alone, so this walk is the independent
// statement of what the record must hold: the scoreboard checks in order
// (guard, pred_src, sources in operand order, GPR or predicate
// destination), the unit the instruction books, its guard and polarity,
// whether it is a traced datapath op, and every field the executor reads
// (form, destination, the three source operands as the per-instruction
// executor decoded them, compare, data type, pred_src, special register,
// branch target, reconvergence pc and memory offset).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "isa/builder.h"
#include "isa/opcode.h"
#include "isa/program.h"
#include "sim/blockexec.h"

namespace higpu::testing {

struct WalkGate {
  std::vector<std::pair<u16, bool>> hazards;  // (register, is_pred)
  bool is_sfu = false;
  bool is_mem = false;
  bool is_datapath = false;
};

inline WalkGate walk_gate(const isa::Instruction& ins) {
  WalkGate g;
  if (ins.guard != isa::kNoPred)
    g.hazards.emplace_back(static_cast<u16>(ins.guard), true);
  if (ins.pred_src != isa::kNoPred)
    g.hazards.emplace_back(static_cast<u16>(ins.pred_src), true);
  for (const isa::Operand& o : ins.src)
    if (o.is_reg()) g.hazards.emplace_back(o.reg, false);
  if (isa::writes_gpr(ins.op)) g.hazards.emplace_back(ins.dst, false);
  if (isa::writes_pred(ins.op)) g.hazards.emplace_back(ins.dst, true);
  g.is_sfu = isa::unit_class(ins.op) == isa::UnitClass::kSfu;
  g.is_mem = isa::unit_class(ins.op) == isa::UnitClass::kMem;
  g.is_datapath = isa::is_datapath(ins.op);
  return g;
}

/// What a set of checked programs covered, so a caller can show that the
/// facts a broken record would get wrong were present to be checked.
struct WalkCoverage {
  u64 pcs = 0;
  u64 mem = 0;              // LSU pcs
  u64 sfu = 0;              // SFU pcs
  u64 guard_and_pred = 0;   // pcs with both a guard and a pred_src
  u64 negated_guards = 0;
  u64 ldp = 0;
  u64 s2r = 0;
  u64 selp = 0;
  u64 divergent_branches = 0;  // guarded bra: reads its reconvergence pc
  u64 offset_global = 0;       // global access with a nonzero mem_offset
  u64 shared = 0;
  u64 atomics = 0;

  /// Every fact listed above was present in the checked programs.
  void expect_complete() const {
    EXPECT_GT(mem, 0u);
    EXPECT_GT(guard_and_pred, 0u);
    EXPECT_GT(negated_guards, 0u);
    EXPECT_GT(ldp, 0u);
    EXPECT_GT(s2r, 0u);
    EXPECT_GT(selp, 0u);
    EXPECT_GT(divergent_branches, 0u);
    EXPECT_GT(offset_global, 0u);
    EXPECT_GT(shared, 0u);
    EXPECT_GT(atomics, 0u);
  }
};

/// A source operand as the per-instruction executor read it: a register,
/// an immediate, or (absent) the value 0.
inline void expect_src_matches(const sim::blockexec::SrcPlan& got,
                               const isa::Operand& o, const std::string& at) {
  EXPECT_EQ(got.is_imm, !o.is_reg()) << at;
  if (o.is_reg())
    EXPECT_EQ(got.reg, o.reg) << at;
  else
    EXPECT_EQ(got.imm, o.present() ? o.imm : 0u) << at;
}

/// A small kernel with one of each form the generated and workload
/// programs may lack: a shared store and load around a barrier, a divergent
/// branch over a global load at a nonzero offset, a selp, an atomic and an
/// offset global store.
inline isa::ProgramPtr make_every_form_kernel() {
  using namespace isa;
  KernelBuilder kb("every_form");
  kb.set_shared_bytes(128);
  Reg out = kb.reg(), tid = kb.reg(), addr = kb.reg(), saddr = kb.reg();
  Reg v = kb.reg(), bit = kb.reg(), sel = kb.reg(), old = kb.reg();
  kb.ldp(out, 0);
  kb.s2r(tid, SReg::kTidX);
  kb.imad(addr, tid, imm(4), out);
  kb.shl(saddr, tid, imm(2));
  kb.sts(saddr, tid);
  kb.bar();
  kb.lds(v, saddr);
  PredReg odd = kb.pred();
  kb.and_(bit, tid, imm(1));
  kb.setp(odd, CmpOp::kNe, DType::kI32, bit, imm(0));
  Label skip = kb.label();
  kb.bra(skip).guard_if(odd);
  kb.ldg(v, addr, 4);
  kb.bind(skip);
  kb.selp(sel, v, tid, odd);
  kb.atom_add(old, out, imm(1));
  kb.stg(addr, sel, 8);
  kb.exit();
  return kb.build();
}

/// Compare every pc's gate record in `prog`'s compiled trace with the walk.
inline void expect_records_match_walk(const isa::KernelProgram& prog,
                                      const sim::blockexec::CompiledTrace& t,
                                      WalkCoverage& cov) {
  ASSERT_EQ(t.size(), prog.size()) << prog.name();
  for (isa::Pc pc = 0; pc < prog.size(); ++pc) {
    const isa::Instruction& ins = prog.at(pc);
    const sim::blockexec::SuperOp& rec = t.at(pc);
    const WalkGate want = walk_gate(ins);
    const std::string at = prog.name() + " pc " + std::to_string(pc) + " (" +
                           isa::op_name(ins.op) + ")";
    EXPECT_EQ(rec.op, ins.op) << at;
    EXPECT_EQ(rec.form, isa::op_info(ins.op).form) << at;
    EXPECT_EQ(rec.dst, ins.dst) << at;
    expect_src_matches(rec.a, ins.src[0], at + " src a");
    expect_src_matches(rec.b, ins.src[1], at + " src b");
    expect_src_matches(rec.c, ins.src[2], at + " src c");
    EXPECT_EQ(rec.cmp, ins.cmp) << at;
    EXPECT_EQ(rec.dtype, ins.dtype) << at;
    EXPECT_EQ(rec.pred_src, ins.pred_src) << at;
    EXPECT_EQ(rec.sreg, ins.sreg) << at;
    EXPECT_EQ(rec.target, ins.target) << at;
    EXPECT_EQ(rec.reconv_pc, ins.reconv_pc) << at;
    EXPECT_EQ(rec.mem_offset, ins.mem_offset) << at;
    EXPECT_EQ(rec.is_sfu, want.is_sfu) << at;
    EXPECT_EQ(rec.is_mem, want.is_mem) << at;
    EXPECT_EQ(rec.is_datapath, want.is_datapath) << at;
    EXPECT_EQ(rec.guard, ins.guard) << at;
    if (ins.guard != isa::kNoPred) EXPECT_EQ(rec.guard_neg, ins.guard_neg) << at;
    ASSERT_EQ(rec.n_hazards, want.hazards.size()) << at;
    for (size_t i = 0; i < want.hazards.size(); ++i) {
      EXPECT_EQ(rec.hazards[i].reg, want.hazards[i].first) << at << " haz " << i;
      EXPECT_EQ(rec.hazards[i].is_pred, want.hazards[i].second)
          << at << " haz " << i;
    }
    cov.pcs += 1;
    cov.mem += want.is_mem;
    cov.sfu += want.is_sfu;
    cov.guard_and_pred +=
        ins.guard != isa::kNoPred && ins.pred_src != isa::kNoPred;
    cov.negated_guards += ins.guard != isa::kNoPred && ins.guard_neg;
    cov.ldp += ins.op == isa::Op::kLdp;
    cov.s2r += ins.op == isa::Op::kS2r;
    cov.selp += ins.op == isa::Op::kSelp;
    cov.divergent_branches +=
        ins.op == isa::Op::kBra && ins.guard != isa::kNoPred;
    cov.offset_global += isa::is_global_mem(ins.op) && ins.mem_offset != 0;
    cov.shared += isa::is_shared_mem(ins.op);
    cov.atomics += ins.op == isa::Op::kAtomAdd;
  }
}

}  // namespace higpu::testing
