// Block-compiled vectorized execution engine.
//
// At kernel launch the program is lowered into a pre-decoded
// *superinstruction trace*: one SuperOp per pc, for every form, with
// operands resolved to register-file row offsets, immediates folded into
// splat values, branch targets, reconvergence pcs and memory offsets copied
// out, the opcode's isa::kOpTable facts (form, unit, writeback kind,
// datapath membership) baked into flags, and the scoreboard-check sequence
// precomputed as an ordered hazard plan.
//
// Every pc's record is both its issue gate and its functional step:
// SmCore checks the hazard plan, the record's unit and its guard, then
// SmCore::execute runs the record, one code path per form. No part of the
// SM decodes the original instruction encoding again.
//
// Basic blocks and fused runs (maximal spans of consecutive register-only
// pcs inside a basic block) are compile statistics only: no issue stage
// walks them.
//
// A kAlu superop executes over the warp's struct-of-arrays register file
// (one contiguous 32-lane row per register, see sim/warp.h) as a width-32
// lane kernel (run_vkernel) written so the compiler can autovectorize it
// into 4/8-lane SIMD. All lane kernels are bit-exact re-expressions of
// sim::eval_alu, the one scalar ALU reference: tests/blockexec_test.cpp
// checks every op against it over edge and random operands, guard masks
// and destination aliasing, and the -O0 vs -O3 reproducibility CI job
// checks the results across optimization levels.
//
// Compiled traces are cached process-wide, keyed by the program identity:
// every SM, engine, redundancy copy and campaign worker thread executing the
// same `isa::KernelProgram` shares one immutable trace. Traces are derived
// state — never serialized — and are rebuilt on snapshot restore.
#pragma once

#include <memory>

#include "common/types.h"
#include "isa/instruction.h"
#include "isa/program.h"

namespace higpu::sim::blockexec {

/// The register-only forms. An SM counts their issues as `block_exec_hits`
/// and every other form's (memory, control flow, barrier, nop) as
/// `block_fallback_exits`; the fused-run statistics count spans of them.
constexpr bool lowers(isa::Form f) { return f <= isa::Form::kSelp; }

/// One pre-decoded source operand: a register row index or a folded
/// immediate. Absent operands fold to immediate 0.
struct SrcPlan {
  u16 reg = 0;
  bool is_imm = true;
  u32 imm = 0;
};

/// One scoreboard check: register (or predicate) index + file.
struct HazPlan {
  u16 reg = 0;
  bool is_pred = false;
};

/// A pre-decoded superinstruction: the gate record and functional step of
/// one pc. Everything the SM would otherwise derive from the instruction
/// encoding per dynamic execution — operand routing, unit, writeback kind,
/// hazard sequence, branch and memory immediates — resolved once at compile
/// time.
struct SuperOp {
  isa::Form form = isa::Form::kNop;  // the opcode's form (isa::kOpTable)
  isa::Op op = isa::Op::kNop;  // the kAlu operation; load, store or atomic

  // Flags folded from the opcode's isa::kOpTable row.
  bool is_sfu = false;
  bool is_mem = false;  // issues on the LSU (global and shared memory)
  bool is_datapath = false;
  bool writes_gpr = false;
  bool writes_pred = false;

  // Guard predicate.
  i16 guard = isa::kNoPred;
  bool guard_neg = false;

  u16 dst = 0;  // GPR row, or predicate row for kSetp
  // Sources in operand order. A memory op's address is `a` and its stored
  // or added value `b`; an ldp's parameter index is `a.imm`.
  SrcPlan a, b, c;

  // kSetp / kSelp extras.
  isa::CmpOp cmp = isa::CmpOp::kEq;
  isa::DType dtype = isa::DType::kI32;
  i16 pred_src = isa::kNoPred;

  // kS2r extra.
  isa::SReg sreg = isa::SReg::kTidX;

  // kBranch extras: the taken pc and the IPDOM reconvergence pc.
  isa::Pc target = 0;
  isa::Pc reconv_pc = 0;

  // kGlobal / kShared extra: byte offset added to the address.
  i32 mem_offset = 0;

  /// Ordered scoreboard plan: guard, pred_src, sources in operand order,
  /// then the destination.
  /// The order is behavioural: a stall records the *first* hazarded
  /// register's release cycle as the warp's wake event.
  HazPlan hazards[6];
  u8 n_hazards = 0;
};

/// A compiled program trace: one SuperOp per pc, plus fused-run and
/// coverage statistics. Immutable after construction; safely shared across
/// threads. Holds a reference to its program so the cache key (the program
/// address) cannot be reused while the trace is alive.
class CompiledTrace {
 public:
  explicit CompiledTrace(isa::ProgramPtr prog);

  const SuperOp& at(isa::Pc pc) const { return sops_[pc]; }
  u32 size() const { return static_cast<u32>(sops_.size()); }

  /// Basic blocks in the program's CFG (the compilation unit).
  u32 num_blocks() const { return num_blocks_; }
  /// Static instructions of a register-only form (`lowers`).
  u32 num_superops() const { return num_superops_; }
  /// Maximal spans of consecutive register-only pcs within one basic block.
  u32 num_fused_runs() const { return num_fused_runs_; }
  /// Static register-only coverage in percent (rounded down).
  u32 static_coverage_pct() const {
    return size() ? num_superops_ * 100 / size() : 0;
  }

 private:
  isa::ProgramPtr prog_;
  std::vector<SuperOp> sops_;
  u32 num_blocks_ = 0;
  u32 num_superops_ = 0;
  u32 num_fused_runs_ = 0;
};

using TracePtr = std::shared_ptr<const CompiledTrace>;

/// Compiled trace for `prog`, served from the process-wide cache (compiles
/// on first use). Thread-safe; concurrent campaign workers launching the
/// same program share one trace.
TracePtr trace_for(const isa::ProgramPtr& prog);

/// Live entries in the process-wide trace cache (test introspection).
u64 trace_cache_live();

/// Execute one width-32 lane kernel: for every lane in `mask`,
/// d[lane] = op(a[lane], b[lane], c[lane]). Bit-identical to calling
/// sim::eval_alu per lane (the golden-bit contract; see blockexec_test).
/// Hot integer/float ops have a dedicated kernel; the rest (SFU/libm ops,
/// whose cost is the math, not the dispatch) share the generic eval_alu
/// loop.
void run_vkernel(isa::Op op, u32* d, const u32* a, const u32* b, const u32* c,
                 u32 mask);

}  // namespace higpu::sim::blockexec
