#include "isa/verify/verify.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/table.h"
#include "isa/cfg.h"
#include "isa/opcode.h"

namespace higpu::isa::verify {

namespace {

constexpr u8 kMaxSReg = static_cast<u8>(SReg::kWarpId);

std::string at_op(const Instruction& ins) {
  return std::string(op_name(ins.op));
}

// ---- Diagnostic emission -----------------------------------------------------

class Sink {
 public:
  explicit Sink(std::vector<Diag>* out) : out_(out) {}

  void emit(Severity sev, Pc pc, u32 block, Code code, std::string msg,
            std::string hint = "") {
    // One diagnostic per (pc, code, message): the same defect re-discovered
    // on another path or lane adds noise, not information — but distinct
    // defects sharing a code at one pc (say, two missing source operands)
    // must both surface, and the message carries that discriminator.
    for (const Diag& d : *out_)
      if (d.pc == pc && d.code == code && d.message == msg) return;
    out_->push_back(Diag{sev, pc, block, code, std::move(msg), std::move(hint)});
  }

  bool has_error() const {
    return std::any_of(out_->begin(), out_->end(), [](const Diag& d) {
      return d.severity == Severity::kError;
    });
  }

 private:
  std::vector<Diag>* out_;
};

// ---- Pass 1: structural ------------------------------------------------------

/// Validates operand shapes and pc-level control flow. Returns true when the
/// program satisfies every invariant isa::Cfg's constructor asserts (branch
/// targets in range, no fall-off-the-end, every block reaches exit), i.e.
/// when it is safe to build a Cfg for the later passes.
bool structural_pass(const KernelProgram& prog, Sink& sink) {
  const std::vector<Instruction>& code = prog.code();
  const u32 n = prog.size();
  if (n == 0) {
    sink.emit(Severity::kError, 0, kNoBlock, Code::kEmptyProgram,
              "program has no instructions",
              "a kernel must contain at least an exit instruction");
    return false;
  }

  bool cfg_safe = true;

  for (Pc pc = 0; pc < n; ++pc) {
    const Instruction& ins = code[pc];

    // Opcode and operand shapes (isa::kOpTable). Every slot and field the
    // opcode does not read must be empty: the executors read a present
    // operand whatever the opcode.
    if (!is_declared(ins.op)) {
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                "undefined opcode #" +
                    std::to_string(static_cast<u32>(ins.op)));
      cfg_safe = false;
      continue;
    }
    const OpInfo& info = op_info(ins.op);
    for (u32 i = 0; i < 3; ++i) {
      const Operand& o = ins.src[i];
      if (i >= info.nsrc) {
        if (o.present())
          sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                    at_op(ins) + " has a source operand " + std::to_string(i) +
                        " it does not read",
                    "expected " + std::to_string(info.nsrc) +
                        " source operand(s)");
      } else if (!o.present()) {
        sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                  at_op(ins) + " is missing source operand " +
                      std::to_string(i),
                  "expected " + std::to_string(info.nsrc) +
                      " source operand(s)");
      } else if (o.is_reg() && o.reg == kNoReg) {
        sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                  at_op(ins) + " source operand " + std::to_string(i) +
                      " is an invalid register handle");
      }
    }
    if (writes_gpr(ins.op) && ins.dst == kNoReg)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                at_op(ins) + " has no destination register");
    if (writes_pred(ins.op) && ins.dst == static_cast<u16>(kNoPred))
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                "setp has no destination predicate");
    if (info.pred_src == PredSrc::kRequired && ins.pred_src == kNoPred)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                "selp has no predicate source",
                "selp selects between operands by a predicate register");
    if (info.pred_src == PredSrc::kNone && ins.pred_src != kNoPred)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                at_op(ins) + " has a predicate source it does not read");
    if (ins.op == Op::kS2r && static_cast<u8>(ins.sreg) > kMaxSReg)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadOperand,
                "s2r reads undefined special register #" +
                    std::to_string(static_cast<u32>(ins.sreg)));

    if (ins.op == Op::kLdp) {
      if (!ins.src[0].is_imm()) {
        sink.emit(Severity::kError, pc, kNoBlock, Code::kBadParamIndex,
                  "ldp parameter index must be an immediate",
                  "parameter loads are resolved at decode time; a register "
                  "index would make the access untraceable");
      } else if (ins.src[0].imm >= prog.num_params()) {
        sink.emit(Severity::kError, pc, kNoBlock, Code::kBadParamIndex,
                  "ldp reads parameter " + std::to_string(ins.src[0].imm) +
                      " but the program declares " +
                      std::to_string(prog.num_params()) + " parameter(s)");
      }
    }

    // Control flow.
    if (ins.op == Op::kBra && ins.target >= n) {
      sink.emit(Severity::kError, pc, kNoBlock, Code::kBadBranchTarget,
                "branch target " + std::to_string(ins.target) +
                    " is outside the program (size " + std::to_string(n) +
                    ")");
      cfg_safe = false;
    }
    if ((ins.op == Op::kExit || ins.op == Op::kBar) && ins.guard != kNoPred)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kGuardedExitOrBar,
                at_op(ins) + " must not be guarded",
                "guard the branch leading here instead; guarded exit/bar "
                "break the SIMT reconvergence-stack invariants");

    // Fall-off-the-end: the last pc must not have an implicit fall-through.
    const bool falls_through =
        ins.op != Op::kExit &&
        !(ins.op == Op::kBra && ins.guard == kNoPred);
    if (falls_through && pc + 1 >= n) {
      sink.emit(Severity::kError, pc, kNoBlock, Code::kFallOffEnd,
                "control flow runs past the last instruction",
                "end the program (and every path) with exit");
      cfg_safe = false;
    }
  }

  // Reachability walks need in-range branch targets.
  if (!cfg_safe) return false;

  // Forward reachability from entry.
  std::vector<u8> reach(n, 0);
  std::vector<Pc> work{0};
  reach[0] = 1;
  auto visit = [&](Pc next) {
    if (next < n && !reach[next]) {
      reach[next] = 1;
      work.push_back(next);
    }
  };
  while (!work.empty()) {
    const Pc pc = work.back();
    work.pop_back();
    const Instruction& ins = code[pc];
    if (ins.op == Op::kExit) continue;
    if (ins.op == Op::kBra) {
      visit(ins.target);
      if (ins.guard != kNoPred) visit(pc + 1);
    } else {
      visit(pc + 1);
    }
  }
  for (Pc pc = 0; pc < n;) {
    if (reach[pc]) {
      ++pc;
      continue;
    }
    Pc end = pc;
    while (end < n && !reach[end]) ++end;
    sink.emit(Severity::kWarning, pc, kNoBlock, Code::kUnreachableCode,
              end - pc == 1
                  ? "instruction is unreachable"
                  : "instructions " + std::to_string(pc) + ".." +
                        std::to_string(end - 1) + " are unreachable",
              "no path from entry executes this code");
    pc = end;
  }

  // Reverse reachability to kExit over *all* pcs (including
  // entry-unreachable ones: the Cfg post-dominator analysis requires every
  // block to reach the virtual exit, reachable or not).
  std::vector<u8> can_exit(n, 0);
  std::vector<std::vector<Pc>> rpreds(n);
  for (Pc pc = 0; pc < n; ++pc) {
    const Instruction& ins = code[pc];
    if (ins.op == Op::kExit) {
      can_exit[pc] = 1;
      work.push_back(pc);
      continue;
    }
    if (ins.op == Op::kBra) {
      rpreds[ins.target].push_back(pc);
      if (ins.guard != kNoPred && pc + 1 < n) rpreds[pc + 1].push_back(pc);
    } else if (pc + 1 < n) {
      rpreds[pc + 1].push_back(pc);
    }
  }
  while (!work.empty()) {
    const Pc pc = work.back();
    work.pop_back();
    for (Pc p : rpreds[pc]) {
      if (!can_exit[p]) {
        can_exit[p] = 1;
        work.push_back(p);
      }
    }
  }
  u32 stuck = 0;
  Pc first_stuck = 0;
  for (Pc pc = 0; pc < n; ++pc) {
    if (!can_exit[pc]) {
      if (stuck == 0) first_stuck = pc;
      ++stuck;
    }
  }
  if (stuck > 0) {
    sink.emit(Severity::kError, first_stuck, kNoBlock, Code::kNoPathToExit,
              std::to_string(stuck) +
                  " instruction(s) can never reach exit (infinite loop)",
              "every cycle in the control-flow graph needs an exiting path");
    return false;
  }

  return true;
}

// ---- Pass 2: resource bounds -------------------------------------------------

void check_pred_index(const Instruction& ins, Pc pc, i16 idx, const char* what,
                      u16 num_preds, Sink& sink) {
  if (idx == kNoPred) return;
  if (idx < 0 || static_cast<u16>(idx) >= num_preds)
    sink.emit(Severity::kError, pc, kNoBlock, Code::kPredOutOfRange,
              at_op(ins) + " " + what + " reads predicate " +
                  std::to_string(idx) + " but the program declares " +
                  std::to_string(num_preds) + " predicate(s)",
              "a predicate-file overflow corrupts a neighboring thread's "
              "predicates at runtime");
}

void resource_pass(const KernelProgram& prog, Sink& sink) {
  const u16 num_regs = prog.num_regs();
  const u16 num_preds = prog.num_preds();
  for (Pc pc = 0; pc < prog.size(); ++pc) {
    const Instruction& ins = prog.at(pc);
    if (!is_declared(ins.op)) continue;  // refused by the structural pass
    if (writes_gpr(ins.op) && ins.dst != kNoReg && ins.dst >= num_regs)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kRegOutOfRange,
                at_op(ins) + " writes r" + std::to_string(ins.dst) +
                    " but the program declares " + std::to_string(num_regs) +
                    " register(s)",
                "a register-file overflow corrupts a neighboring thread's "
                "registers at runtime");
    for (u32 i = 0; i < op_info(ins.op).nsrc; ++i) {
      const Operand& o = ins.src[i];
      if (o.is_reg() && o.reg != kNoReg && o.reg >= num_regs)
        sink.emit(Severity::kError, pc, kNoBlock, Code::kRegOutOfRange,
                  at_op(ins) + " reads r" + std::to_string(o.reg) +
                      " but the program declares " +
                      std::to_string(num_regs) + " register(s)");
    }
    if (writes_pred(ins.op) && ins.dst != static_cast<u16>(kNoPred) &&
        ins.dst >= num_preds)
      sink.emit(Severity::kError, pc, kNoBlock, Code::kPredOutOfRange,
                "setp writes p" + std::to_string(ins.dst) +
                    " but the program declares " + std::to_string(num_preds) +
                    " predicate(s)",
                "a predicate-file overflow corrupts a neighboring thread's "
                "predicates at runtime");
    check_pred_index(ins, pc, ins.guard, "guard", num_preds, sink);
    if (op_info(ins.op).pred_src != PredSrc::kNone)
      check_pred_index(ins, pc, ins.pred_src, "pred source", num_preds, sink);
  }
}

// ---- Read/write sets (shared by passes 3 and 4) -------------------------------

struct Access {
  bool is_pred = false;
  u32 idx = 0;
};

void collect_reads(const Instruction& ins, std::vector<Access>& out) {
  out.clear();
  if (ins.guard != kNoPred)
    out.push_back({true, static_cast<u32>(ins.guard)});
  const OpInfo& info = op_info(ins.op);
  for (u32 i = 0; i < info.nsrc; ++i)
    if (ins.src[i].is_reg() && ins.src[i].reg != kNoReg)
      out.push_back({false, ins.src[i].reg});
  if (info.pred_src != PredSrc::kNone && ins.pred_src != kNoPred)
    out.push_back({true, static_cast<u32>(ins.pred_src)});
}

bool instruction_write(const Instruction& ins, Access* w) {
  if (writes_gpr(ins.op) && ins.dst != kNoReg) {
    *w = {false, ins.dst};
    return true;
  }
  if (writes_pred(ins.op) && ins.dst != static_cast<u16>(kNoPred)) {
    *w = {true, ins.dst};
    return true;
  }
  return false;
}

/// Blocks reachable from the entry block over CFG edges.
std::vector<u8> reachable_blocks(const Cfg& cfg) {
  std::vector<u8> reach(cfg.num_blocks(), 0);
  std::vector<u32> work{cfg.block_of(0)};
  reach[cfg.block_of(0)] = 1;
  while (!work.empty()) {
    const u32 b = work.back();
    work.pop_back();
    for (u32 s : cfg.block(b).succs) {
      if (!reach[s]) {
        reach[s] = 1;
        work.push_back(s);
      }
    }
  }
  return reach;
}

// ---- Pass 3: dataflow (definite assignment) -----------------------------------

void dataflow_pass(const KernelProgram& prog, const Cfg& cfg, Sink& sink) {
  const u32 nregs = prog.num_regs();
  const u32 npreds = prog.num_preds();
  const u32 nbits = nregs + npreds;  // preds live at bit nregs + idx
  if (nbits == 0) return;
  const std::vector<u8> reach = reachable_blocks(cfg);

  auto bit_of = [&](const Access& a) { return (a.is_pred ? nregs : 0) + a.idx; };
  auto in_range = [&](const Access& a) {
    return a.is_pred ? a.idx < npreds : a.idx < nregs;
  };

  // Registers written by any reachable instruction (out-of-range indices
  // were already flagged by the resource pass; skip them here).
  std::vector<u8> written_anywhere(nbits, 0);
  Access w;
  for (u32 b = 0; b < cfg.num_blocks(); ++b) {
    if (!reach[b]) continue;
    for (Pc pc = cfg.block(b).first; pc <= cfg.block(b).last; ++pc)
      if (instruction_write(prog.at(pc), &w) && in_range(w))
        written_anywhere[bit_of(w)] = 1;
  }

  // Forward must-analysis: in[b] = AND over preds(out[p]); a register is
  // "definitely written" at a pc only if every path from entry writes it.
  using BitSet = std::vector<u8>;
  const u32 entry = cfg.block_of(0);
  std::vector<BitSet> in(cfg.num_blocks(), BitSet(nbits, 1));
  std::vector<BitSet> out(cfg.num_blocks(), BitSet(nbits, 1));
  in[entry].assign(nbits, 0);

  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 b = 0; b < cfg.num_blocks(); ++b) {
      if (!reach[b]) continue;
      BitSet next_in = in[b];
      if (b != entry) {
        next_in.assign(nbits, 1);
        for (u32 p : cfg.block(b).preds) {
          if (!reach[p]) continue;
          for (u32 i = 0; i < nbits; ++i) next_in[i] &= out[p][i];
        }
      }
      BitSet next_out = next_in;
      for (Pc pc = cfg.block(b).first; pc <= cfg.block(b).last; ++pc)
        if (instruction_write(prog.at(pc), &w) && in_range(w))
          next_out[bit_of(w)] = 1;
      if (next_in != in[b] || next_out != out[b]) {
        in[b] = std::move(next_in);
        out[b] = std::move(next_out);
        changed = true;
      }
    }
  }

  // Report: walk each reachable block with its converged entry state.
  std::vector<Access> reads;
  for (u32 b = 0; b < cfg.num_blocks(); ++b) {
    if (!reach[b]) continue;
    BitSet state = in[b];
    for (Pc pc = cfg.block(b).first; pc <= cfg.block(b).last; ++pc) {
      const Instruction& ins = prog.at(pc);
      collect_reads(ins, reads);
      for (const Access& r : reads) {
        if (!in_range(r)) continue;  // resource pass already flagged it
        const char* kind = r.is_pred ? "p" : "r";
        if (!written_anywhere[bit_of(r)]) {
          sink.emit(Severity::kError, pc, b,
                    r.is_pred ? Code::kUninitPredRead : Code::kUninitRegRead,
                    at_op(ins) + " reads " + kind + std::to_string(r.idx) +
                        ", which no instruction writes",
                    "uninitialized register files can diverge across "
                    "redundant copies, breaking the determinism contract");
        } else if (!state[bit_of(r)]) {
          sink.emit(Severity::kWarning, pc, b, Code::kMaybeUninitRead,
                    at_op(ins) + " reads " + kind + std::to_string(r.idx) +
                        " before it is written on some path from entry");
        }
      }
      if (instruction_write(ins, &w) && in_range(w)) state[bit_of(w)] = 1;
    }
  }
}

// ---- Pass 4: barrier safety ----------------------------------------------------

/// Flow-insensitive divergence-taint fixpoint: a register/predicate is
/// tainted when its value can differ across the threads of one block.
/// Sources: tid.*, laneid, warpid, atomics' return values, and loads whose
/// address is tainted. Propagates through the datapath and setp/selp.
void barrier_pass(const KernelProgram& prog, const Cfg& cfg, Sink& sink) {
  // Does the program have a barrier at all? (Common case: no.)
  bool has_bar = false;
  for (Pc pc = 0; pc < prog.size(); ++pc)
    if (prog.at(pc).op == Op::kBar) has_bar = true;
  if (!has_bar) return;

  const u32 nregs = prog.num_regs();
  const u32 npreds = prog.num_preds();
  std::vector<u8> taint(nregs + npreds, 0);
  auto reg_bit = [&](u32 r) { return r; };
  auto pred_bit = [&](u32 p) { return nregs + p; };

  std::vector<Access> reads;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Pc pc = 0; pc < prog.size(); ++pc) {
      const Instruction& ins = prog.at(pc);
      Access w;
      if (!instruction_write(ins, &w)) continue;
      if ((w.is_pred && w.idx >= npreds) || (!w.is_pred && w.idx >= nregs))
        continue;
      const u32 wbit = w.is_pred ? pred_bit(w.idx) : reg_bit(w.idx);
      if (taint[wbit]) continue;

      bool t = false;
      switch (ins.op) {
        case Op::kS2r:
          // tid/laneid diverge across the threads of a warp; warpid
          // diverges across the warps of a block — either desynchronizes
          // a block-wide barrier.
          t = ins.sreg == SReg::kTidX || ins.sreg == SReg::kTidY ||
              ins.sreg == SReg::kTidZ || ins.sreg == SReg::kLaneId ||
              ins.sreg == SReg::kWarpId;
          break;
        case Op::kAtomAdd:
          t = true;  // returns the pre-update value: unique per thread
          break;
        case Op::kLdp:
          t = false;  // parameters are block-uniform
          break;
        default: {
          collect_reads(ins, reads);
          for (const Access& r : reads) {
            if ((r.is_pred && r.idx >= npreds) || (!r.is_pred && r.idx >= nregs))
              continue;
            if (taint[r.is_pred ? pred_bit(r.idx) : reg_bit(r.idx)]) t = true;
          }
          break;
        }
      }
      if (t) {
        taint[wbit] = 1;
        changed = true;
      }
    }
  }

  // A guarded branch with a tainted guard splits the threads of a block;
  // the divergent region is everything reachable from the branch before
  // control reconverges at its IPDOM block. A barrier inside that region is
  // only reached by the threads that took its side: the block deadlocks.
  const std::vector<u8> reach = reachable_blocks(cfg);
  for (Pc pc = 0; pc < prog.size(); ++pc) {
    const Instruction& ins = prog.at(pc);
    if (ins.op != Op::kBra || ins.guard == kNoPred) continue;
    if (static_cast<u16>(ins.guard) >= npreds) continue;
    if (!taint[pred_bit(static_cast<u32>(ins.guard))]) continue;
    const u32 b = cfg.block_of(pc);
    if (!reach[b]) continue;
    const u32 reconv = cfg.ipdom(b);

    std::vector<u8> in_region(cfg.num_blocks(), 0);
    std::vector<u32> work;
    for (u32 s : cfg.block(b).succs) {
      if (s != reconv && !in_region[s]) {
        in_region[s] = 1;
        work.push_back(s);
      }
    }
    while (!work.empty()) {
      const u32 cur = work.back();
      work.pop_back();
      for (u32 s : cfg.block(cur).succs) {
        if (s != reconv && !in_region[s]) {
          in_region[s] = 1;
          work.push_back(s);
        }
      }
    }
    for (u32 rb = 0; rb < cfg.num_blocks(); ++rb) {
      if (!in_region[rb]) continue;
      for (Pc bp = cfg.block(rb).first; bp <= cfg.block(rb).last; ++bp) {
        if (prog.at(bp).op != Op::kBar) continue;
        sink.emit(Severity::kError, bp, rb, Code::kBarrierDivergence,
                  "barrier is control-dependent on the thread-divergent "
                  "branch at pc " +
                      std::to_string(pc),
                  "threads that skip the barrier never arrive: the block "
                  "deadlocks. Hoist the barrier past the reconvergence "
                  "point or make the guard block-uniform");
      }
    }
  }
}

// ---- Pass 5: memory bounds (interval abstract interpretation) -----------------

struct Ival {
  bool top = true;
  i64 lo = 0, hi = 0;  // invariant when !top: 0 <= lo <= hi <= 2^32-1

  static Ival all() { return {}; }
  static Ival exact(u32 v) { return {false, v, v}; }
  static Ival range(i64 lo, i64 hi) { return {false, lo, hi}; }

  bool operator==(const Ival&) const = default;
};

constexpr i64 kU32Max = 0xFFFFFFFF;

Ival join(const Ival& a, const Ival& b) {
  if (a.top || b.top) return Ival::all();
  return Ival::range(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
}

/// Reduce an unconstrained i64 range back into u32 space: if the whole
/// range wraps by the same multiple of 2^32, wrapping is a uniform shift;
/// if it straddles a wrap boundary, all precision is lost.
Ival norm(i64 lo, i64 hi) {
  const i64 span = kU32Max + 1;
  const i64 lo_wraps = lo >= 0 ? lo / span : -((-lo + span - 1) / span);
  const i64 hi_wraps = hi >= 0 ? hi / span : -((-hi + span - 1) / span);
  if (lo_wraps != hi_wraps) return Ival::all();
  return Ival::range(lo - lo_wraps * span, hi - lo_wraps * span);
}

class IntervalState {
 public:
  IntervalState(const KernelProgram& prog, const LaunchBounds& lb)
      : prog_(prog), lb_(lb), regs_(prog.num_regs()),
        update_count_(prog.num_regs(), 0), written_(prog.num_regs(), 0) {}

  /// Flow-insensitive fixpoint over the whole program: each register gets
  /// one interval covering every value it can hold anywhere. Sound (a
  /// per-point analysis would only be tighter) and cheap; widening to TOP
  /// after a few updates guarantees termination on loops.
  void solve() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (Pc pc = 0; pc < prog_.size(); ++pc)
        if (transfer(prog_.at(pc))) changed = true;
    }
  }

  Ival value_of(const Operand& o) const {
    if (o.is_imm()) return Ival::exact(o.imm);
    if (o.is_reg() && o.reg < regs_.size() && written_[o.reg])
      return regs_[o.reg];
    return Ival::all();  // unwritten: pass 3's problem, stay sound here
  }

 private:
  bool assign(u16 dst, const Ival& v) {
    if (dst >= regs_.size()) return false;
    Ival next = written_[dst] ? join(regs_[dst], v) : v;
    if (!next.top && update_count_[dst] >= 8) next = Ival::all();  // widen
    if (written_[dst] && next == regs_[dst]) return false;
    if (written_[dst]) update_count_[dst] += 1;
    written_[dst] = 1;
    regs_[dst] = next;
    return true;
  }

  Ival sreg_value(SReg s) const {
    auto dim = [](u32 v) { return v ? Ival::range(0, v - 1) : Ival::all(); };
    auto exact_or_top = [](u32 v) { return v ? Ival::exact(v) : Ival::all(); };
    switch (s) {
      case SReg::kTidX: return dim(lb_.ntid_x);
      case SReg::kTidY: return dim(lb_.ntid_y);
      case SReg::kTidZ: return dim(lb_.ntid_z);
      case SReg::kCtaIdX: return dim(lb_.nctaid_x);
      case SReg::kCtaIdY: return dim(lb_.nctaid_y);
      case SReg::kCtaIdZ: return dim(lb_.nctaid_z);
      case SReg::kNTidX: return exact_or_top(lb_.ntid_x);
      case SReg::kNTidY: return exact_or_top(lb_.ntid_y);
      case SReg::kNTidZ: return exact_or_top(lb_.ntid_z);
      case SReg::kNCtaIdX: return exact_or_top(lb_.nctaid_x);
      case SReg::kNCtaIdY: return exact_or_top(lb_.nctaid_y);
      case SReg::kNCtaIdZ: return exact_or_top(lb_.nctaid_z);
      case SReg::kLaneId: return Ival::range(0, 31);
      case SReg::kWarpId: {
        if (!lb_.ntid_x || !lb_.ntid_y || !lb_.ntid_z) return Ival::all();
        const u32 threads = lb_.ntid_x * lb_.ntid_y * lb_.ntid_z;
        return Ival::range(0, (threads + 31) / 32 - 1);
      }
    }
    return Ival::all();
  }

  bool transfer(const Instruction& ins) {
    if (!writes_gpr(ins.op) || ins.dst == kNoReg) return false;
    const Ival a = value_of(ins.src[0]);
    const Ival b = value_of(ins.src[1]);
    Ival v = Ival::all();
    switch (ins.op) {
      case Op::kMov:
        v = a;
        break;
      case Op::kS2r:
        v = sreg_value(ins.sreg);
        break;
      case Op::kLdp:
        if (lb_.params != nullptr && ins.src[0].is_imm() &&
            ins.src[0].imm < lb_.params->size())
          v = Ival::exact((*lb_.params)[ins.src[0].imm]);
        break;
      case Op::kIadd:
        if (!a.top && !b.top) v = norm(a.lo + b.lo, a.hi + b.hi);
        break;
      case Op::kIsub:
        if (!a.top && !b.top) v = norm(a.lo - b.hi, a.hi - b.lo);
        break;
      case Op::kImul:
        // Unsigned product; give up when the upper corner can wrap.
        if (!a.top && !b.top &&
            (b.hi == 0 || a.hi <= kU32Max / (b.hi ? b.hi : 1)))
          v = Ival::range(a.lo * b.lo, a.hi * b.hi);
        break;
      case Op::kImad: {
        const Ival c = value_of(ins.src[2]);
        if (!a.top && !b.top && !c.top &&
            (b.hi == 0 || a.hi <= kU32Max / (b.hi ? b.hi : 1)))
          v = norm(a.lo * b.lo + c.lo, a.hi * b.hi + c.hi);
        break;
      }
      case Op::kShl:
        if (!a.top && !b.top && b.lo == b.hi) {
          const i64 s = b.lo & 31;
          if (a.hi <= (kU32Max >> s)) v = Ival::range(a.lo << s, a.hi << s);
        }
        break;
      case Op::kShr:
        if (!a.top && !b.top && b.lo == b.hi) {
          const i64 s = b.lo & 31;
          v = Ival::range(a.lo >> s, a.hi >> s);
        }
        break;
      case Op::kSra:
        // Identical to shr while the value is non-negative as i32.
        if (!a.top && !b.top && b.lo == b.hi && a.hi <= 0x7FFFFFFF) {
          const i64 s = b.lo & 31;
          v = Ival::range(a.lo >> s, a.hi >> s);
        }
        break;
      case Op::kAnd:
        // Masking can only clear bits: bounded by both inputs' maxima.
        if (!a.top || !b.top)
          v = Ival::range(0, std::min(a.top ? kU32Max : a.hi,
                                      b.top ? kU32Max : b.hi));
        break;
      case Op::kImin:
        if (!a.top && !b.top && a.hi <= 0x7FFFFFFF && b.hi <= 0x7FFFFFFF)
          v = Ival::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
        break;
      case Op::kImax:
        if (!a.top && !b.top && a.hi <= 0x7FFFFFFF && b.hi <= 0x7FFFFFFF)
          v = Ival::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
        break;
      case Op::kSelp:
        v = join(a, b);
        break;
      default:
        break;  // float ops, loads, conversions: TOP
    }
    return assign(ins.dst, v);
  }

  const KernelProgram& prog_;
  const LaunchBounds& lb_;
  std::vector<Ival> regs_;
  std::vector<u8> update_count_;
  std::vector<u8> written_;
};

void memory_pass(const KernelProgram& prog, const Cfg& cfg,
                 const LaunchBounds& lb, Sink& sink) {
  bool has_mem = false;
  for (Pc pc = 0; pc < prog.size(); ++pc)
    if (is_shared_mem(prog.at(pc).op) || is_global_mem(prog.at(pc).op))
      has_mem = true;
  if (!has_mem) return;

  IntervalState state(prog, lb);
  state.solve();

  for (Pc pc = 0; pc < prog.size(); ++pc) {
    const Instruction& ins = prog.at(pc);
    if (!is_shared_mem(ins.op) && !is_global_mem(ins.op)) continue;
    const Ival addr = state.value_of(ins.src[0]);
    if (addr.top) continue;  // unbounded address: nothing provable
    const i64 lo = addr.lo + ins.mem_offset;
    const i64 hi = addr.hi + ins.mem_offset;
    const u32 block = cfg.block_of(pc);

    if (is_shared_mem(ins.op)) {
      const i64 size = prog.shared_bytes();
      if (lo + 4 > size || hi < 0) {
        sink.emit(Severity::kError, pc, block, Code::kSharedOutOfBounds,
                  at_op(ins) + " address range [" + std::to_string(lo) +
                      ", " + std::to_string(hi + 3) +
                      "]: every possible access falls outside the " +
                      std::to_string(size) + "-byte shared segment",
                  "declare enough shared memory (set_shared_bytes) or fix "
                  "the address computation");
      } else if (hi + 4 > size || lo < 0) {
        sink.emit(Severity::kWarning, pc, block,
                  Code::kSharedMaybeOutOfBounds,
                  at_op(ins) + " address range [" + std::to_string(lo) +
                      ", " + std::to_string(hi + 3) +
                      "] can overrun the " + std::to_string(size) +
                      "-byte shared segment");
      }
    } else if (lb.global_extent > 0) {
      // Provable errors only: the global extent covers the whole store, so
      // a partial overlap is routinely a false alarm on strided accesses.
      if (lo + 4 > static_cast<i64>(lb.global_extent)) {
        sink.emit(Severity::kError, pc, block, Code::kGlobalOutOfBounds,
                  at_op(ins) + " address range [" + std::to_string(lo) +
                      ", " + std::to_string(hi + 3) +
                      "]: every possible access overruns the " +
                      std::to_string(lb.global_extent) +
                      "-byte global store");
      }
    }
  }
}

}  // namespace

// ---- Public API ----------------------------------------------------------------

const char* code_name(Code c) {
  switch (c) {
    case Code::kEmptyProgram: return "empty-program";
    case Code::kBadBranchTarget: return "bad-branch-target";
    case Code::kFallOffEnd: return "fall-off-end";
    case Code::kNoPathToExit: return "no-path-to-exit";
    case Code::kUnreachableCode: return "unreachable-code";
    case Code::kGuardedExitOrBar: return "guarded-exit-or-bar";
    case Code::kBadOperand: return "bad-operand";
    case Code::kBadParamIndex: return "bad-param-index";
    case Code::kRegOutOfRange: return "reg-out-of-range";
    case Code::kPredOutOfRange: return "pred-out-of-range";
    case Code::kUninitRegRead: return "uninit-reg-read";
    case Code::kUninitPredRead: return "uninit-pred-read";
    case Code::kMaybeUninitRead: return "maybe-uninit-read";
    case Code::kBarrierDivergence: return "barrier-divergence";
    case Code::kSharedOutOfBounds: return "shared-oob";
    case Code::kSharedMaybeOutOfBounds: return "shared-maybe-oob";
    case Code::kGlobalOutOfBounds: return "global-oob";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

bool Result::ok() const { return count(Severity::kError) == 0; }

u32 Result::count(Severity s) const {
  u32 n = 0;
  for (const Diag& d : diags)
    if (d.severity == s) ++n;
  return n;
}

bool Result::has(Code c) const {
  return std::any_of(diags.begin(), diags.end(),
                     [c](const Diag& d) { return d.code == c; });
}

std::string Result::to_json() const {
  JsonWriter jw = JsonWriter::compact();
  jw.begin_object();
  jw.field("kernel", kernel);
  jw.field("ok", ok());
  jw.field("errors", count(Severity::kError));
  jw.field("warnings", count(Severity::kWarning));
  jw.key("diags");
  jw.begin_array();
  for (const Diag& d : diags) {
    jw.begin_object();
    jw.field("severity", severity_name(d.severity));
    jw.field("code", code_name(d.code));
    jw.field("pc", d.pc);
    if (d.block != kNoBlock) jw.field("block", d.block);
    jw.field("message", d.message);
    if (!d.hint.empty()) jw.field("hint", d.hint);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  return jw.str();
}

std::string Result::to_string() const {
  std::string s =
      "kernel '" + kernel + "': " + std::to_string(count(Severity::kError)) +
      " error(s), " + std::to_string(count(Severity::kWarning)) +
      " warning(s)\n";
  for (const Diag& d : diags) {
    s += "  [";
    s += severity_name(d.severity);
    s += "] pc ";
    s += std::to_string(d.pc);
    s += " ";
    s += code_name(d.code);
    s += ": " + d.message;
    if (!d.hint.empty()) s += " (" + d.hint + ")";
    s += '\n';
  }
  return s;
}

Result verify(const KernelProgram& program, const LaunchBounds& bounds) {
  Result res;
  res.kernel = program.name();
  Sink sink(&res.diags);

  const bool cfg_safe = structural_pass(program, sink);
  resource_pass(program, sink);
  if (!cfg_safe) return res;  // Cfg construction needs the invariants above

  const Cfg cfg(program.code());
  dataflow_pass(program, cfg, sink);
  barrier_pass(program, cfg, sink);
  memory_pass(program, cfg, bounds, sink);

  // Keep reports deterministic and readable: program order, errors before
  // warnings/notes at the same pc (Severity's enumerator order), emission
  // order beyond that (stable).
  std::stable_sort(res.diags.begin(), res.diags.end(),
                   [](const Diag& a, const Diag& b) {
                     if (a.pc != b.pc) return a.pc < b.pc;
                     return a.severity < b.severity;
                   });
  return res;
}

VerifyError::VerifyError(Result result)
    : std::runtime_error("kernel launch refused by the static verifier: " +
                         result.to_string()),
      result_(std::move(result)) {}

}  // namespace higpu::isa::verify
