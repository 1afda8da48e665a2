// Parallel, deterministic campaign execution.
//
// A CampaignRunner executes a ScenarioSet across N host threads. Every
// scenario constructs its own Device / ExecSession / FaultInjector /
// Workload from its spec — simulations share no mutable state — so the
// per-scenario results are bit-identical regardless of thread count or
// completion order (results are stored at the scenario's index, never
// appended). Fields tagged FieldTag::kNotDeterministic (host wall-clock
// times, the campaign-mode-dependent divergence) are excluded from
// ScenarioResult::deterministic_fields_equal().
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/diversity.h"
#include "exp/scenario.h"
#include "obs/profile.h"

namespace higpu::exp {

/// Everything the paper reports about one scenario, plus bookkeeping.
struct ScenarioResult {
  // ---- Identity ----------------------------------------------------------
  u32 index = 0;       // position in the ScenarioSet
  std::string label;   // ScenarioSpec::label()
  std::string workload;

  // ---- Run status --------------------------------------------------------
  /// False when the scenario threw (validation error, SimTimeout, ...);
  /// `error` then holds the exception text and the metric fields are zero.
  bool ok = false;
  std::string error;

  // ---- Verdicts (deterministic) ------------------------------------------
  bool verified = false;    // outputs match the CPU reference
  bool dcls_match = false;  // every comparison was unanimous (true in
                            // baseline mode, where nothing is compared)
  /// Every comparison of the final attempt produced a safe output —
  /// unanimous, or corrected by majority vote (fail-operational NMR).
  bool majority_ok = false;
  u32 comparisons = 0;
  u32 mismatches = 0;
  /// First faulty copy identified by a vote across all comparisons, or -1.
  i32 faulty_copy = -1;

  // ---- Redundancy / recovery (deterministic) -----------------------------
  u32 n_copies = 1;
  u32 attempts = 0;          // executions performed (> 1 => retries fired)
  bool recovered = false;    // a retry turned a detection into a clean run
  bool degraded = false;     // Recovery::kDegrade engaged
  bool ftti_met = false;     // the whole response fit the item's FTTI
  NanoSec response_ns = 0;   // modelled detect + re-execute sequence time
  safety::Asil achieved_asil = safety::Asil::kQM;  // per composed_asil

  // ---- Metrics (deterministic) -------------------------------------------
  Cycle kernel_cycles = 0;   // the Fig. 4 metric
  NanoSec elapsed_ns = 0;    // modelled end-to-end time (the Fig. 5 metric)
  Cycle ff_cycles = 0;       // cycles fast-forwarded by the event engine
  core::DiversityReport diversity;  // across all redundant pairs
  StatSet stats;             // full GPU counter set
  /// Per-SM cycle attribution (issued / scoreboard / barrier / structural /
  /// idle; obs::SmCycles invariant: the five classes sum to the GPU's total
  /// cycles on every SM). Deterministic — counted unconditionally by both
  /// engines.
  std::vector<obs::SmCycles> sm_profile;

  // ---- Fault outcome (deterministic; meaningful when fault_active) -------
  bool fault_active = false;
  u64 corruptions = 0;       // datapath results actually corrupted
  u64 diverted_blocks = 0;   // scheduler-fault block diversions
  /// classify(dcls_match, verified): kDetected when the DCLS comparison
  /// flags the fault, kSdc when outputs match but are wrong, kMasked when
  /// the run is correct (e.g. the window hit an idle phase).
  fault::Outcome outcome = fault::Outcome::kMasked;

  // ---- Diagnosis (campaign-mode dependent, excluded from equality) -------
  /// First architecturally divergent component between this run's final
  /// device state and a clean reference snapshot (ckpt::first_divergence:
  /// "sm3", "l1[2] set 17", "dram bank 5", "store @0x..."), "" when
  /// identical. Only populated when a reference exists — snapshot
  /// fast-forward campaigns diff every faulted fork against the clean base
  /// run.
  std::string divergence;

  // ---- Host timing (NON-deterministic, excluded from equality) -----------
  double wall_sec = 0.0;      // full scenario wall time on this host
  double sim_wall_sec = 0.0;  // wall time inside the simulation engine

  /// True when the scenario is unconditionally good: ran, verified, and the
  /// redundant copies matched unless a fault was (correctly) detected.
  bool passed() const {
    if (!ok) return false;
    if (fault_active) return outcome != fault::Outcome::kSdc;
    return verified && dcls_match;
  }

  /// Bit-exact equality of every field not tagged kNotDeterministic — the
  /// campaign determinism guarantee checked by tests/campaign_test.cpp.
  bool deterministic_fields_equal(const ScenarioResult& other) const;
  bool operator==(const ScenarioResult& other) const = default;
};

template <FieldsOf<ScenarioResult> S, class V>
void visit_fields(S& r, V&& v) {
  v("index", r.index);
  v("label", r.label);
  v("workload", r.workload);
  v("ok", r.ok);
  v("error", r.error);
  v("verified", r.verified);
  v("dcls_match", r.dcls_match);
  v("majority_ok", r.majority_ok);
  v("comparisons", r.comparisons);
  v("mismatches", r.mismatches);
  v("faulty_copy", r.faulty_copy);
  v("n_copies", r.n_copies);
  v("attempts", r.attempts);
  v("recovered", r.recovered);
  v("degraded", r.degraded);
  v("ftti_met", r.ftti_met);
  v("response_ns", r.response_ns);
  v("achieved_asil", r.achieved_asil);
  v("kernel_cycles", r.kernel_cycles);
  v("elapsed_ns", r.elapsed_ns);
  v("ff_cycles", r.ff_cycles);
  v("diversity", r.diversity);
  v("stats", r.stats);
  v("sm_profile", r.sm_profile);
  v("fault_active", r.fault_active);
  v("corruptions", r.corruptions);
  v("diverted_blocks", r.diverted_blocks);
  v("outcome", r.outcome);
  v("divergence", r.divergence, FieldTag::kNotDeterministic);
  v("wall_sec", r.wall_sec, FieldTag::kNotDeterministic);
  v("sim_wall_sec", r.sim_wall_sec, FieldTag::kNotDeterministic);
}

/// Optional inspection hook: called with the live device, workload and
/// session, for callers that need more than a ScenarioResult (kernel
/// categorization, block records, instruction traces). Runs on the worker
/// thread; must not touch shared state without its own synchronization.
using ScenarioProbe = std::function<void(
    runtime::Device&, workloads::Workload&, core::ExecSession&)>;

/// Snapshot traffic of one scenario execution — the plumbing behind
/// snapshot-accelerated fault campaigns. A *base* run sets capture_targets
/// (the sweep's injection cycles) and `keep_round`, and reads back
/// `captured`/`final_state`/`round`; a *fork* sets `resume` (a base
/// snapshot whose cycle predates its fault), `replay` (the base's round),
/// optionally `divergence_ref` (the clean final state to diff against) and
/// optionally `sibling` (a Recovery::kNone twin answered from its first
/// attempt). All snapshots are immutable and safely shared across threads.
struct SnapshotIo {
  // In (base run): capture a snapshot covering each cycle.
  std::vector<Cycle> capture_targets;
  // Out (base run): parallel to sorted/deduped capture_targets; null where
  // the run finished before the target.
  std::vector<ckpt::SnapshotPtr> captured;
  // In (fork): restore this snapshot at the matching synchronize() — the
  // deterministic prefix is skipped, results stay bit-identical.
  ckpt::SnapshotPtr resume;
  // Out: the device's final state after the run (for divergence diffing).
  ckpt::SnapshotPtr final_state;
  // In (fork): clean final state to localize divergence against.
  ckpt::SnapshotPtr divergence_ref;
  // In (base run): keep the run's last sync round
  // (runtime::Device::keep_last_round).
  bool keep_round = false;
  // Out (base run): that round; empty when the run kept none.
  ckpt::SyncRound round;
  // In (fork): a clean run's round the fork replays where its own round
  // provably equals it (runtime::Device::offer_round).
  ckpt::SyncRound replay;
  // In (fork): a scenario that is this run's spec but for
  // Recovery::kNone, and its index. Its whole run is this run's first
  // attempt, so its result is harvested there, before any recovery (see
  // core::ExecSession::run), with `divergence` from one snapshot taken then.
  const ScenarioSpec* sibling = nullptr;
  u32 sibling_index = 0;
  // Out: that result; empty when this run stopped before its first attempt
  // ended (a failed validation, a throw inside the body).
  std::optional<ScenarioResult> sibling_result;
};

/// Execute one scenario start-to-finish on the calling thread. `pre_run`
/// runs after the device/session are constructed but before the workload
/// executes (e.g. to install a trace sink); `probe` runs directly after
/// Workload::run returns, before verification/teardown — a pre_run/probe
/// pair brackets exactly the workload's device flow. `snap`, when given,
/// wires the scenario into the snapshot machinery (see SnapshotIo).
ScenarioResult run_scenario(const ScenarioSpec& spec, u32 index = 0,
                            const ScenarioProbe& probe = nullptr,
                            const ScenarioProbe& pre_run = nullptr,
                            SnapshotIo* snap = nullptr);

struct CampaignResult {
  std::vector<ScenarioResult> results;  // in ScenarioSet order
  u32 jobs = 1;          // worker threads actually used
  double wall_sec = 0.0; // whole-campaign wall time

  u32 failed() const;
  bool all_passed() const;
  double scenarios_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(results.size()) / wall_sec : 0.0;
  }

  /// JSON report (higpu.campaign/2): each result is its JSONL record
  /// (exp/result_io.h) plus the derived `passed`.
  std::string to_json() const;
  /// One CSV row per scenario: a column per field not tagged
  /// kNotDeterministic (nested records as "diversity.<field>", one
  /// "stats.<counter>" column per counter any row has), then `passed`.
  std::string to_csv() const;
};

class CampaignRunner {
 public:
  struct Config {
    /// Worker threads; 0 = std::thread::hardware_concurrency().
    u32 jobs = 0;
    /// Snapshot fast-forward: scenarios that differ only in their fault
    /// plan and recovery strategy share one clean base run — simulated
    /// once, snapshotted at each member's injection cycle — and each
    /// faulted member forks from the snapshot covering its injection point
    /// instead of re-simulating the common prefix from cycle 0 (see
    /// exp/units.h). Results are bit-identical to from-
    /// scratch execution (enforced by tests/ckpt_test.cpp); forks
    /// additionally report ScenarioResult::divergence against the clean
    /// run's final state. Groups need >= 2 fault members to be worth a
    /// base run; everything else runs normally.
    bool snapshot_fast_forward = false;
    /// Called after each scenario completes, serialized under a mutex
    /// (progress reporting). Completion order is scheduling-dependent.
    std::function<void(const ScenarioResult&)> on_result;
  };

  CampaignRunner() = default;
  explicit CampaignRunner(Config cfg) : cfg_(std::move(cfg)) {}

  /// Validate and execute every scenario; never throws for per-scenario
  /// failures (see ScenarioResult::ok). Throws std::invalid_argument if the
  /// set itself is malformed.
  CampaignResult run(const ScenarioSet& set) const;

 private:
  Config cfg_;
};

}  // namespace higpu::exp
