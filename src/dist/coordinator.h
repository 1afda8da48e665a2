// The coordinator side of the distributed campaign service.
//
// run_distributed() executes a ScenarioSet across a fleet of forked
// campaign_worker processes:
//
//   * the ScenarioSet decomposes into the same WorkUnits as the in-process
//     CampaignRunner (exp::plan_units / same_but_fault_and_recovery
//     grouping), dealt round-robin into per-worker shards right after
//     planning;
//   * each kWork frame carries one unit's pending members (indices and
//     specs); the worker runs it through exp::run_unit — the group's clean
//     base run, then each fault fork against the snapshots that base
//     captured — and streams one kResult per member, so snapshots never
//     leave the process that captured them;
//   * a poll() loop dispatches one unit per worker at a time, accepts
//     kResult frames (a result for a member not pending in that worker's
//     unit is a WireError), and lets an idle worker steal from the largest
//     remaining shard, so a slow shard never serializes the campaign;
//   * workers heartbeat; EOF, a wire error or a heartbeat gap longer than
//     `heartbeat_timeout_ms` declares a worker dead, its unreported members
//     are re-enqueued as one unit, and the campaign continues (inline on
//     the coordinator if the whole fleet dies);
//   * every accepted result is appended to the JSONL journal and flushed
//     before the next dispatch, so a killed coordinator can resume.
//
// Determinism contract (pinned by tests/dist_test.cpp): the final results
// are bit-identical — per ScenarioResult::deterministic_fields_equal — to
// CampaignRunner with jobs=1, at any worker count, under any steal
// schedule, and across worker SIGKILL plus journal resume. Scheduling only
// decides *where* a scenario runs; the simulator decides what it computes.
#pragma once

#include <functional>
#include <string>

#include "exp/campaign.h"

namespace higpu::dist {

struct DistConfig {
  /// Worker processes to fork. 0 = run everything inline (jobs=1 on the
  /// coordinator; still journals/resumes — useful for goldens).
  u32 workers = 2;
  /// Worker binary. Empty = "<dir of this executable>/campaign_worker".
  std::string worker_exe;
  /// Journal path. Empty = no journal (in-memory only, no resume).
  std::string journal_path;
  /// Resume: scan `journal_path`, keep its completed results and execute
  /// only the missing scenario indices. The journal's campaign fingerprint
  /// must match `set` (JournalError otherwise).
  bool resume = false;
  /// Ship same_but_fault_and_recovery groups as one unit that shares a
  /// clean base run
  /// (matches CampaignRunner::Config::snapshot_fast_forward).
  bool snapshot_fast_forward = true;

  int heartbeat_interval_ms = 200;
  int heartbeat_timeout_ms = 10'000;

  /// Fault-injection for the service itself (CI kill-and-resume job):
  /// SIGKILL one live worker after this many results have been accepted
  /// this run (0 = never). Exercises the death/redispatch path.
  u32 chaos_kill_after = 0;
  /// Simulate a coordinator crash: stop accepting after this many results
  /// this run (0 = never), SIGKILL the fleet and return with
  /// `stopped_early` set. The journal holds everything accepted so far.
  u32 stop_after_results = 0;

  /// Called on the coordinator for every accepted result (any order).
  std::function<void(const exp::ScenarioResult&)> on_result;
};

struct DistReport {
  exp::CampaignResult campaign;
  /// Scenarios loaded from the journal instead of executed.
  u64 resumed = 0;
  /// Scenarios actually executed this run (worker and inline results).
  u64 executed = 0;
  u64 workers_died = 0;
  /// kWork frames sent (one per unit, plus one per re-dispatched remainder).
  u64 units_shipped = 0;
  /// Snapshot bytes in kWork frames. Always 0 since higpu.wire/4: a unit's
  /// snapshots stay in the worker that captured them.
  u64 snapshot_bytes_shipped = 0;
  bool stopped_early = false;
};

/// Execute `set` per `config`. Throws JournalError on a resume mismatch and
/// std::invalid_argument on an empty set; worker failures are handled, not
/// thrown.
DistReport run_distributed(const exp::ScenarioSet& set,
                           const DistConfig& config);

/// "<directory of /proc/self/exe>/campaign_worker" — the default fleet
/// binary, resolved at call time.
std::string default_worker_exe();

}  // namespace higpu::dist
