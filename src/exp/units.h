// Work-unit planning and execution for campaign backends.
//
// Both campaign executors — the in-process CampaignRunner thread pool and
// the dist:: coordinator/worker service — decompose a ScenarioSet the same
// way: scenarios that are the same experiment under different fault plans
// or recovery strategies (ScenarioSpec::same_but_fault_and_recovery) form
// one *group* that can share a single clean base run; everything else is a
// singleton unit. Both then hand each unit to run_unit(): the group's base
// run is simulated once with snapshots captured at every member's injection
// cycle, and each faulted member then forks from the snapshot covering its
// own injection point (runtime::Device::arm_resume) instead of
// re-simulating the common prefix.
//
// Every recovery strategy runs the workload body once before any recovery
// starts (core::ExecSession::run), and the pre-kernel anchors a rollback run
// captures are invisible to the simulation. So:
//  * a run whose first attempt is safe returns the same result under every
//    strategy: the base's result, relabelled, answers every fault-free
//    member and every quiet one (below);
//  * a fault member without recovery (Recovery::kNone) is answered by the
//    first attempt of a recovering member of the same plan whose fork is
//    simulated: that member runs once, its twin's result is harvested at
//    the end of its first attempt, and recovery then goes on for the
//    recovering member alone.
// Until its first corrupted result a faulted run is the clean run, so a
// member whose window is *quiet* — no datapath result lands in it on its
// SMs in the clean run (a scheduler fault: it opens after the clean run has
// drained) — simulates nothing: it takes the base's result, relabelled,
// with the fast-forward count the window's trigger cycles cost. A member
// that does fork and recovers by rollback onto the clean run's last
// pre-kernel anchor replays the base's last sync round instead of
// simulating it again (runtime::Device::offer_round).
// A unit runs start to finish in one process, so its snapshots never leave
// the process that captured them. Forking and eliding are purely
// accelerations: per-scenario results are bit-identical to from-scratch
// execution (pinned by tests/ckpt_test.cpp and tests/dist_test.cpp), so any
// executor may group or not, locally or across processes, without changing
// campaign output.
#pragma once

#include <functional>
#include <vector>

#include "exp/campaign.h"

namespace higpu::exp {

/// One unit of campaign work: scenario indices that may share a base run.
struct WorkUnit {
  std::vector<size_t> members;
  /// Number of members with an active fault plan. A unit is worth a shared
  /// base run when it has >= 2 of them (see worth_base_run()).
  size_t fault_members = 0;

  /// The unit of `members` (indices into `set`), fault members counted.
  static WorkUnit of(const ScenarioSet& set, std::vector<size_t> members);

  bool worth_base_run() const {
    return members.size() >= 2 && fault_members >= 2;
  }
};

/// Decompose `set` into work units. With `group_faults` set, scenarios
/// related by same_but_fault_and_recovery coalesce into one unit
/// (first-seen order, deterministic); otherwise every scenario is its own
/// unit. Indices 0..set.size()-1 appear exactly once across all units.
std::vector<WorkUnit> plan_units(const ScenarioSet& set, bool group_faults);

/// The product of one group's clean base run: snapshots covering each
/// forking member's injection cycle, the clean final state, the members
/// whose window is quiet, and the base's own ScenarioResult (which doubles
/// as the result of every fault-free member and every quiet member it
/// answers()).
struct GroupBase {
  static constexpr size_t kSynthetic = static_cast<size_t>(-1);

  /// A fault member whose faulted run would be the clean run: no datapath
  /// result with live lanes falls in its window [start, end) on its SMs
  /// (any SM for a droop), or, for a scheduler fault, the window opens
  /// after the clean run's final clock. `jumped` counts the window's
  /// boundaries that lie strictly inside a fast-forward jump of the clean
  /// event loop: the faulted run visits those as trigger events, so it
  /// fast-forwards that many fewer cycles.
  struct Quiet {
    size_t index = 0;
    Cycle jumped = 0;
  };

  ScenarioResult result;
  /// Scenario index `result` belongs to, or kSynthetic when the group has
  /// no fault-free member and the base run was fabricated (result discarded).
  size_t result_index = kSynthetic;
  /// The recovery strategy the base run ran under.
  core::RedundancySpec::Recovery recovery =
      core::RedundancySpec::Recovery::kNone;
  /// Sorted, deduplicated capture cycles with their snapshots (parallel;
  /// null where the base run finished before the target, and where only
  /// quiet members start, since no fork restores those).
  std::vector<Cycle> targets;
  std::vector<ckpt::SnapshotPtr> snapshots;
  /// Clean final device state (divergence reference for forks).
  ckpt::SnapshotPtr final_state;
  /// The clean run's last sync round, which a fork that rolls back onto
  /// its entry replays (runtime::Device::offer_round). Empty unless the
  /// run captured pre-kernel anchors (rollback recovery).
  ckpt::SyncRound round;
  /// The quiet fault members, in member order.
  std::vector<Quiet> quiet;

  bool ok() const { return result.ok; }
  /// Whether `result` is also the clean run of `member`'s recovery
  /// strategy: the base ran under it, or its first attempt was safe
  /// (attempts 1, majority_ok), so no strategy recovered anything.
  bool answers(const ScenarioSpec& member) const;
  /// Snapshot covering injection cycle `c`, or null: also when `c` is past
  /// the clean run's final clock, since the base run drained before it.
  ckpt::SnapshotPtr snapshot_for(Cycle c) const;
};

/// Run the clean base scenario of one group on the calling thread,
/// capturing a snapshot at every fault member's injection cycle and
/// watching which members' windows stay quiet. The base spec is the group's
/// first fault-free member, preferring one under Recovery::kRollback (only
/// a rollback run captures the pre-kernel anchors its round needs); with no
/// fault-free member it is the first kRollback member with its fault
/// stripped, else members[0] stripped. The watch is a fault hook that
/// changes nothing: the base run visits the same cycles and captures the
/// same snapshot bytes. The run also keeps its last sync round
/// (GroupBase::round). Once the run ends, snapshots that only quiet members
/// the base answers asked for are dropped.
GroupBase run_group_base(const ScenarioSet& set,
                         const std::vector<size_t>& members);

/// Run one fork scenario (index `i` of `set`) against a completed base:
/// resumes from the snapshot covering its injection cycle when available
/// (from scratch otherwise — missing snapshots degrade to correctness, not
/// failure), is offered the base's round to replay after a rollback, and
/// diffs its final state against the clean run's. `probe` and `pre_run`
/// pass through to run_scenario.
///
/// When the base answers the member, the spec validates and the member is
/// quiet, nothing runs: the faulted run would be the clean run, so the
/// result is base.result with the member's index and label, fault_active
/// set, no corruptions or diverted blocks, ff_cycles lowered by the quiet
/// entry's `jumped`, and divergence "fault" (all a simulated fork would
/// report). An invalid spec still runs and fails with its own error.
ScenarioResult run_fork(const ScenarioSet& set, size_t i,
                        const GroupBase& base,
                        const ScenarioProbe& probe = nullptr,
                        const ScenarioProbe& pre_run = nullptr);

/// Receives each member's result as it completes (execution order).
using ResultSink = std::function<void(ScenarioResult)>;

/// Run the unit of `members` (indices into `set`) on the calling thread and
/// hand every member's result to `emit`. A unit worth a base run
/// (WorkUnit::worth_base_run) runs its clean base through run_group_base,
/// then each remaining member: a fault-free one takes the base result when
/// the base answers it and runs from scratch otherwise, and a fault member
/// forks from the base (run_fork). A Recovery::kNone fault member with a
/// recovering member of the same plan is not forked: that member's fork
/// also yields its result, harvested at the end of the fork's first attempt
/// (SnapshotIo::sibling). Only when that fork is answered from the base, or
/// stops before its first attempt ends, does the kNone member run its own
/// fork. Any other unit runs each member from scratch with no snapshot
/// traffic. `probe` and `pre_run` fire once per simulated run except the
/// base run. A member answered without a device of its own — from the base
/// result or from a recovering twin's first attempt — gets neither call.
void run_unit(const ScenarioSet& set, const std::vector<size_t>& members,
              const ResultSink& emit, const ScenarioProbe& probe = nullptr,
              const ScenarioProbe& pre_run = nullptr);

}  // namespace higpu::exp
