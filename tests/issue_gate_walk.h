// The issue gate as a walk over an `isa::Instruction`: the reference that
// every pc's compiled gate record (sim::blockexec::SuperOp) is checked
// against. SmCore issues from the record alone in both exec modes, so this
// walk is the independent statement of what the record must hold: the
// scoreboard checks in order (guard, pred_src, sources in operand order,
// GPR or predicate destination), the unit the instruction books, its guard
// and polarity, and whether it is a traced datapath op.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
/// gate facts a broken record would get wrong were present to be checked.
struct WalkCoverage {
  u64 pcs = 0;
  u64 mem = 0;              // LSU pcs
  u64 sfu = 0;              // SFU pcs
  u64 guard_and_pred = 0;   // pcs with both a guard and a pred_src
  u64 negated_guards = 0;
};

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
  }
}

}  // namespace higpu::testing
