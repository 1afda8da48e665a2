// Cycle-attribution and host-phase profiling types.
//
// SmCycles is the per-SM breakdown the simulator maintains as it runs:
// every cycle an SM is resident-occupied (its "active" cycles) is
// attributed to exactly one class — it issued at least one instruction, or
// it was fully stalled and the dominant stall class names the cycle. Idle
// cycles (no resident block) are the remainder against the GPU clock, so
// per SM:
//
//   issued + scoreboard + barrier + structural == active
//   active + idle                              == total GPU cycles
//
// The attribution is computed identically by the dense per-cycle loop and
// the event engine's settle_to() fast-forward (pinned by the engine
// equivalence suite — the counters live in SmCore::snapshot_stats()), so
// the profile is deterministic and engine-independent.
//
// HostPhases is the wall-clock side: where a scenario's host time went
// (simulating vs capturing/restoring snapshots). It is diagnostic — wall
// time is never part of the determinism contract — and feeds
// BENCH_obs.json so the ROADMAP's Amdahl split is a measured artifact.
#pragma once

#include <string>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::obs {

/// Per-SM cycle attribution. All values in GPU cycles.
struct SmCycles {
  u64 issued = 0;      // cycles with at least one instruction issued
  u64 scoreboard = 0;  // fully-stalled cycles dominated by RAW/WAW hazards
  u64 barrier = 0;     // ... dominated by barrier waits
  u64 structural = 0;  // ... dominated by unit/memory structural hazards
  u64 idle = 0;        // cycles with no resident block
  u64 active() const { return issued + scoreboard + barrier + structural; }
  u64 total() const { return active() + idle; }
  bool operator==(const SmCycles& other) const = default;
};

template <FieldsOf<SmCycles> S, class V>
void visit_fields(S& c, V&& v) {
  v("issued", c.issued);
  v("scoreboard", c.scoreboard);
  v("barrier", c.barrier);
  v("structural", c.structural);
  v("idle", c.idle);
}

/// Render per-SM attribution as an aligned text table (run_workload
/// --profile). `cycles` is the run's total GPU cycle count.
std::string profile_table(const std::vector<SmCycles>& sms, u64 cycles);

/// Host wall-clock phase split for one device lifetime, in seconds.
struct HostPhases {
  double sim_s = 0.0;      // inside Gpu::run_until_idle
  double snapshot_s = 0.0; // capturing checkpoints/snapshots
  double restore_s = 0.0;  // restoring/rolling back snapshots
};

}  // namespace higpu::obs
