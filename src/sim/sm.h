// Streaming Multiprocessor model: resident thread blocks, warp scheduling
// (greedy-then-oldest), scoreboarding, execution pipelines, shared memory
// and barriers. Functional execution happens at issue; timing is charged
// through per-unit availability counters and the memory hierarchy.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "ckpt/serial.h"
#include "common/stats.h"
#include "common/types.h"
#include "memsys/global_store.h"
#include "memsys/hierarchy.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/fault_hook.h"
#include "sim/kernel.h"
#include "sim/params.h"
#include "sim/trace.h"
#include "sim/warp.h"

namespace higpu::sim {

namespace blockexec {
struct SuperOp;
}  // namespace blockexec

/// A thread block resident on an SM.
struct ResidentBlock {
  bool active = false;
  u32 launch_id = 0;
  u32 block_linear = 0;
  Dim3 block_idx;
  const KernelLaunch* launch = nullptr;
  u32 num_warps = 0;
  u32 warps_live = 0;
  u32 barrier_count = 0;  // warps currently waiting at the barrier
  std::vector<u8> shared;  // functional shared memory
  // Reserved resources, released when the block completes.
  u32 regs_reserved = 0;
  u32 shared_reserved = 0;
  u32 intended_sm = 0;
  Cycle dispatch_cycle = 0;
};

/// The snapshot fields of a block slot: an inactive slot is its `active`
/// byte alone. `launch` is rebuilt from `launch_id`.
template <FieldsOf<ResidentBlock> S, class V>
void visit_fields(S& b, V&& v) {
  v("active", b.active);
  if (!b.active) return;
  v("launch_id", b.launch_id);
  v("block_linear", b.block_linear);
  v("block_idx", b.block_idx);
  v("num_warps", b.num_warps);
  v("warps_live", b.warps_live);
  v("barrier_count", b.barrier_count);
  v("shared", b.shared);
  v("regs_reserved", b.regs_reserved);
  v("shared_reserved", b.shared_reserved);
  v("intended_sm", b.intended_sm);
  v("dispatch_cycle", b.dispatch_cycle);
}

class SmCore {
 public:
  using BlockDoneFn = std::function<void(const BlockRecord&)>;

  SmCore(u32 sm_id, const GpuParams& params, memsys::MemHierarchy* mem,
         memsys::GlobalStore* store);

  u32 id() const { return sm_id_; }

  /// True if a block of `launch` fits in the currently-free resources.
  bool can_accept(const KernelLaunch& launch) const;

  /// Bind block `block_linear` of `launch` to this SM (resources must fit).
  void accept_block(const KernelLaunch& launch, u32 launch_id, u32 block_linear,
                    u32 intended_sm, Cycle now);

  /// Advance one cycle: each warp scheduler tries to issue one instruction.
  /// Self-settles any quiescent gap since the last simulated cycle, so it is
  /// safe to call at non-contiguous `now` values (event-driven engine).
  void cycle(Cycle now);

  /// True if the most recent cycle() made forward progress: issued an
  /// instruction, completed a warp, or completed a block. After a cycle with
  /// no progress the SM is quiescent and can sleep until next_event_cycle().
  bool progressed() const { return progress_; }

  /// Earliest cycle at which a resident warp can become ready — scoreboard
  /// release (including memory-response arrival, which is a pending-register
  /// ready cycle), or execution-unit availability — recorded as a byproduct
  /// of the failed issue attempts of the preceding cycle() call, so it is
  /// only meaningful after a cycle with progressed() == false. Barrier waits
  /// contribute no event: they are released by other warps' issues, which
  /// are events themselves. Conservatively stops at stall-class boundaries
  /// so skipped-cycle stall accounting stays bit-identical to the dense
  /// loop. Returns kNeverCycle for an idle SM (or one whose warps can only
  /// be unblocked externally).
  Cycle next_event_cycle() const {
    return blocks_used_ ? quiet_wake_ : kNeverCycle;
  }

  /// Account statistics for quiescent cycles (last settled, upto] exactly
  /// as the dense loop would have counted them (active_cycles plus one
  /// stall per active warp per cycle, classified). Called internally by
  /// cycle()/accept_block(); the GPU calls it directly before a timeout.
  void settle_to(Cycle upto);

  /// No resident blocks.
  bool idle() const { return blocks_used_ == 0; }

  void set_block_done_callback(BlockDoneFn fn) { on_block_done_ = std::move(fn); }
  void set_fault_hook(IFaultHook* hook) { fault_ = hook; }
  void set_trace_sink(ITraceSink* sink) { trace_ = sink; }
  /// Attach (or detach, with nullptr) the observability tracer. `track` is
  /// this SM's track id in `t`. The tracer is a pure observer — attaching
  /// it changes no simulated state (pinned by the trace-identity suite);
  /// its only per-warp bookkeeping (open stall episodes) lives in a
  /// trace-only side table that is never serialized.
  void set_obs_tracer(obs::Tracer* t, u32 track) {
    obs_ = t;
    obs_track_ = track;
    stall_eps_.assign(warps_.size(), StallEp{});
  }
  /// Event-engine mode: the issue walk may skip a warp in O(1) while its
  /// recorded stall is provably still blocking (see StallRec). Off in the
  /// dense reference loop, which faithfully re-attempts every warp every
  /// cycle — keeping the two engines independent implementations of the
  /// same semantics for the equivalence test to cross-check.
  void set_use_wake_records(bool on) { use_wake_records_ = on; }

  // Free-resource introspection (used by tests and occupancy analysis).
  u32 free_warp_slots() const { return params_.max_warps_per_sm - warps_used_; }
  u32 free_regs() const { return params_.regfile_per_sm - regs_used_; }
  u32 resident_blocks() const { return blocks_used_; }

  /// Static per-block resource footprint of a launch on this configuration.
  static u32 warps_needed(const GpuParams& p, const KernelLaunch& l);
  static u32 regs_needed(const GpuParams& p, const KernelLaunch& l);

  /// Statistics snapshot including derived stall-reason counters.
  StatSet snapshot_stats() const;

  /// Per-SM cycle attribution: every active cycle classified as issued or
  /// by its dominant stall class, idle as the remainder against
  /// `total_cycles` (the GPU clock). issued + stalls == active cycles by
  /// construction, and the classification is computed identically by the
  /// dense loop and the event engine's settle_to() fast-forward.
  obs::SmCycles cycle_breakdown(Cycle total_cycles) const {
    obs::SmCycles c;
    c.issued = cycles_issued_;
    c.scoreboard = cycles_stall_scoreboard_;
    c.barrier = cycles_stall_barrier_;
    c.structural = cycles_stall_structural_;
    c.idle = total_cycles >= active_cycles_ ? total_cycles - active_cycles_ : 0;
    return c;
  }

  /// Checkpoint the full SM state (its visit_fields): resident blocks and
  /// warps (registers, predicates, reconvergence stacks, scoreboards, shared
  /// memory), the warp-scheduler bookkeeping, structural-unit availability,
  /// the event engine's per-warp stall/wake records, and all statistics
  /// counters. Inactive block/warp slots are serialized as empty
  /// (accept_block fully reinitializes a slot, so stale contents are not
  /// behavioural state — excluding them keeps snapshot hashes free of
  /// dead-data noise).
  void save(ckpt::Writer& w) const { ckpt::put_fields(w, *this); }
  /// `launch_of` maps a launch id to its (already restored) KernelLaunch,
  /// or nullptr for an id with none; used to rebuild the block -> launch
  /// and warp -> trace pointers.
  void restore(ckpt::Reader& r,
               const std::function<const KernelLaunch*(u32)>& launch_of);

 private:
  template <FieldsOf<SmCore> S, class V>
  friend void visit_fields(S& s, V&& v) {
    v("warps_used", s.warps_used_);
    v("blocks_used", s.blocks_used_);
    v("regs_used", s.regs_used_);
    v("shared_used", s.shared_used_);
    v("sfu_free", s.sfu_free_);
    v("mem_free", s.mem_free_);
    v("age_counter", s.age_counter_);
    v("last_issued", s.last_issued_);
    for (auto& order : s.sched_order_) v("sched_order", order);
    v("last_settled", s.last_settled_);
    v("progress", s.progress_);
    v("quiet_wake", s.quiet_wake_);
    for (auto& rec : s.warp_stall_) v("warp_stall", rec);
    for (auto& b : s.blocks_) v("block", b);
    for (auto& w : s.warps_) v("warp", w);
    visit_counters(s, v);
  }
  /// The statistics counters, named as snapshot_stats() reports them.
  template <FieldsOf<SmCore> S, class V>
  static void visit_counters(S& s, V&& v) {
    v("blocks_accepted", s.blocks_accepted_);
    v("blocks_completed", s.blocks_completed_);
    v("active_cycles", s.active_cycles_);
    v("instructions", s.instructions_);
    v("divergent_branches", s.divergent_branches_);
    v("barriers", s.barriers_);
    v("smem_accesses", s.smem_accesses_);
    v("smem_bank_conflicts", s.smem_bank_conflicts_);
    v("smem_oob_wraps", s.smem_oob_wraps_);
    v("global_atomics", s.global_atomics_);
    v("global_load_transactions", s.global_load_transactions_);
    v("global_store_transactions", s.global_store_transactions_);
    constexpr FieldTag kAlways = FieldTag::kReportedWhenZero;
    v("issue_stall_scoreboard", s.stall_scoreboard_, kAlways);
    v("issue_stall_barrier", s.stall_barrier_, kAlways);
    v("issue_stall_structural", s.stall_structural_, kAlways);
    v("issue_attempts_issued", s.issued_attempts_, kAlways);
    v("block_exec_hits", s.block_exec_hits_);
    v("block_fallback_exits", s.block_fallback_exits_);
    // Unconditional so the engine equivalence suites pin the cycle
    // classification even when a bucket is zero.
    v("cycles_issued", s.cycles_issued_, kAlways);
    v("cycles_stall_scoreboard", s.cycles_stall_scoreboard_, kAlways);
    v("cycles_stall_barrier", s.cycles_stall_barrier_, kAlways);
    v("cycles_stall_structural", s.cycles_stall_structural_, kAlways);
  }

  // Issue path.
  enum class IssueOutcome : u8 {
    kIssued,
    kWarpDone,
    kBarrier,
    kScoreboard,
    kStructural,
  };
  friend constexpr IssueOutcome enum_last(IssueOutcome) {
    return IssueOutcome::kStructural;
  }
  /// The issue gate, one for every opcode: the gate record at the warp's
  /// pc (its hazard plan, unit and guard) decides whether it issues, and
  /// execute() then runs that same record.
  IssueOutcome try_issue_classified(Warp& w, Cycle now);
  bool try_issue(Warp& w, Cycle now);
  /// Execution unit a structural stall waits on (kNone for other stalls).
  enum class Unit : u8 { kNone, kMem, kSfu };
  Cycle unit_free(Unit u) const {
    return u == Unit::kMem ? mem_free_ : sfu_free_;
  }
  /// Record a failed issue attempt: remembers the warp's stall class and
  /// wake time — the earliest cycle the blocking condition can clear — and
  /// folds the latter into quiet_wake_. Until that cycle the warp is
  /// provably still blocked with the same class, so the issue walk skips
  /// the full hazard re-check (and the event engine can sleep through it).
  /// Returns `o` so call sites stay oneliners.
  IssueOutcome stall(const Warp& w, IssueOutcome o, Cycle cand,
                     Unit unit = Unit::kNone) {
    StallRec& rec = warp_stall_[static_cast<size_t>(&w - warps_.data())];
    --live_stalls(rec.cls);
    ++live_stalls(o);
    rec.cls = o;
    rec.wake = cand;
    rec.unit = unit;
    if (cand < quiet_wake_) quiet_wake_ = cand;
    return o;
  }
  /// A structural stall on unit `u`: the wake follows the unit's live
  /// next-free counter (see StallRec).
  IssueOutcome stall_on(const Warp& w, Unit u) {
    return stall(w, IssueOutcome::kStructural, unit_free(u), u);
  }
  /// Count one stall of class `cls`, exactly as a failed attempt would.
  void count_stall(IssueOutcome cls) {
    switch (cls) {
      case IssueOutcome::kScoreboard: ++stall_scoreboard_; break;
      case IssueOutcome::kBarrier: ++stall_barrier_; break;
      default: ++stall_structural_; break;
    }
  }
  /// The functional step of every pc: one switch over the record's form.
  /// A kAlu op runs as a width-32 lane kernel (blockexec::run_vkernel).
  void execute(Warp& w, const blockexec::SuperOp& sop, u32 guard_mask,
               Cycle now);
  void exec_branch(Warp& w, const blockexec::SuperOp& sop, u32 guard_mask);
  void exec_global_mem(Warp& w, const blockexec::SuperOp& sop, u32 guard_mask,
                       Cycle now);
  void exec_shared_mem(Warp& w, const blockexec::SuperOp& sop, u32 guard_mask,
                       Cycle now);
  void exec_barrier(Warp& w);
  u32 sreg_value(const Warp& w, isa::SReg sreg, u32 lane) const;
  /// XOR the fault hook's flip into the `lanes` results in register row `dst`.
  void corrupt_results(u32* dst, u32 lanes, Cycle now);

  // Completion path.
  void complete_warp(Warp& w, Cycle now);
  void complete_block(ResidentBlock& b, Cycle now);
  void release_barrier(ResidentBlock& b);

  u32 sm_id_;
  const GpuParams& params_;
  memsys::MemHierarchy* mem_;
  memsys::GlobalStore* store_;
  IFaultHook* fault_ = nullptr;
  ITraceSink* trace_ = nullptr;
  bool use_wake_records_ = false;

  std::vector<ResidentBlock> blocks_;  // max_blocks_per_sm slots
  std::vector<Warp> warps_;            // max_warps_per_sm slots

  // Occupancy accounting.
  u32 warps_used_ = 0;
  u32 blocks_used_ = 0;
  u32 regs_used_ = 0;
  u32 shared_used_ = 0;

  // Structural availability.
  Cycle sfu_free_ = 0;
  Cycle mem_free_ = 0;

  // Warp-scheduler bookkeeping. sched_order_[s] holds scheduler s's active
  // warp slots in age order (maintained incrementally: activation appends —
  // ages are monotonic — completion erases), so the per-cycle selection
  // needs no sorting or allocation.
  std::vector<i32> last_issued_;  // per scheduler: warp slot or -1
  std::vector<std::vector<u32>> sched_order_;
  u64 age_counter_ = 0;

  // Event-engine bookkeeping: last cycle whose statistics are accounted,
  // whether the last simulated cycle made progress, the SM wake time and
  // the per-warp stall class + wake recorded by failed issue attempts.
  // A stalled warp does not change, its scoreboard only drains, and
  // barriers are cleared explicitly (which resets the record). So a
  // scoreboard record blocks until its recorded wake, and a structural
  // record blocks while its unit is busy: the issue walk reads the unit's
  // live next-free counter, which only moves forward, so a unit re-booked
  // by another warp keeps the record blocked without a re-attempt. `unit`
  // is derived state (the unit of the gate record at the warp's pc), never
  // serialized; restore() recomputes it.
  struct StallRec {
    Cycle wake = 0;  // 0 = must attempt; kNeverCycle = barrier (external)
    IssueOutcome cls = IssueOutcome::kStructural;
    Unit unit = Unit::kNone;  // the busy unit of a structural stall

    template <FieldsOf<StallRec> S, class V>
    friend void visit_fields(S& r, V&& v) {
      v("wake", r.wake);
      v("cls", r.cls);
    }
  };
  Cycle last_settled_ = 0;
  bool progress_ = false;
  Cycle quiet_wake_ = kNeverCycle;
  std::vector<StallRec> warp_stall_;  // parallel to warps_
  // Active warps per recorded StallRec::cls, indexed by the enum, so
  // settle_to() needs no warp walk. Derived state, never serialized;
  // restore() recomputes it.
  std::array<u32, static_cast<size_t>(IssueOutcome::kStructural) + 1>
      live_stalls_{};
  u32& live_stalls(IssueOutcome cls) {
    return live_stalls_[static_cast<size_t>(cls)];
  }

  // Immediate-splat rows for the lane-vector kernels (one per source slot).
  u32 splat_a_[kWarpSize];
  u32 splat_b_[kWarpSize];
  u32 splat_c_[kWarpSize];

  BlockDoneFn on_block_done_;

  // Statistics. Hot-path counters are plain integers (a map lookup per
  // cycle/issue would dominate the simulation); snapshot_stats() exports
  // them under their original StatSet names.
  u64 blocks_accepted_ = 0;
  u64 blocks_completed_ = 0;
  u64 active_cycles_ = 0;
  u64 instructions_ = 0;
  u64 divergent_branches_ = 0;
  u64 barriers_ = 0;
  u64 smem_accesses_ = 0;
  u64 smem_bank_conflicts_ = 0;
  // Shared accesses whose (fault-corrupted) address fell outside the block's
  // segment and was wrapped back in — the always-on replacement for the
  // old NDEBUG-only bounds assert.
  u64 smem_oob_wraps_ = 0;
  u64 global_atomics_ = 0;
  u64 global_load_transactions_ = 0;
  u64 global_store_transactions_ = 0;

  // Issue-attempt outcome counters (exported via snapshot_stats()).
  u64 stall_scoreboard_ = 0;
  u64 stall_barrier_ = 0;
  u64 stall_structural_ = 0;
  u64 issued_attempts_ = 0;

  // Issue counters by form: both count *issued* instructions, so hits +
  // fallbacks == instructions. Every pc runs through execute(); the split
  // names the forms that touch only registers (blockexec::lowers) and the
  // rest.
  u64 block_exec_hits_ = 0;        // register-only forms
  u64 block_fallback_exits_ = 0;   // memory, control, barrier and nop

  // Cycle attribution (obs::SmCycles). Every active cycle lands in exactly
  // one bucket: issued if any scheduler made progress, else the dominant
  // stall class of that cycle's failed attempts (ties break scoreboard >=
  // barrier >= structural; a no-progress cycle with no per-cycle stall
  // deltas — possible only transiently — counts as structural). settle_to()
  // applies the same rule per quiescent cycle from the recorded per-warp
  // stall classes, which are constant across a quiescent window.
  void attribute_stall_cycles(u64 sb, u64 bar, u64 str, u64 n) {
    if (sb >= bar && sb >= str && sb > 0) {
      cycles_stall_scoreboard_ += n;
    } else if (bar >= str && bar > 0) {
      cycles_stall_barrier_ += n;
    } else {
      cycles_stall_structural_ += n;
    }
  }
  u64 cycles_issued_ = 0;
  u64 cycles_stall_scoreboard_ = 0;
  u64 cycles_stall_barrier_ = 0;
  u64 cycles_stall_structural_ = 0;

  // Observability tracer (nullptr when tracing is off — the only cost then
  // is one pointer test per hook). Stall spans are emitted as *episodes*:
  // one ring write when a warp's contiguous stall of one class ends, not
  // one per stalled cycle. stall_eps_ is trace-only state — never
  // serialized, cleared on restore/detach — so tracing cannot perturb
  // snapshots or simulated behaviour.
  struct StallEp {
    Cycle start = 0;
    IssueOutcome cls = IssueOutcome::kStructural;
    bool open = false;
  };
  void open_stall_episode(size_t slot, Cycle now, IssueOutcome cls) {
    StallEp& ep = stall_eps_[slot];
    if (ep.open && ep.cls == cls) return;
    if (ep.open) emit_stall_span(slot, ep, now);
    ep.start = now;
    ep.cls = cls;
    ep.open = true;
  }
  void close_stall_episode(size_t slot, Cycle now) {
    StallEp& ep = stall_eps_[slot];
    if (!ep.open) return;
    emit_stall_span(slot, ep, now);
    ep.open = false;
  }
  void emit_stall_span(size_t slot, const StallEp& ep, Cycle end) const {
    obs_->emit(obs_track_, obs::Ev::kWarpStall, ep.start, end - ep.start,
               static_cast<u64>(slot), static_cast<u64>(obs_stall_cls(ep.cls)));
  }
  static obs::StallCls obs_stall_cls(IssueOutcome o) {
    switch (o) {
      case IssueOutcome::kScoreboard: return obs::StallCls::kScoreboard;
      case IssueOutcome::kBarrier: return obs::StallCls::kBarrier;
      default: return obs::StallCls::kStructural;
    }
  }
  obs::Tracer* obs_ = nullptr;
  u32 obs_track_ = 0;
  std::vector<StallEp> stall_eps_;  // parallel to warps_; trace-only
};

}  // namespace higpu::sim
