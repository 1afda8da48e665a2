// Continuous-operation serving engine (deadline-aware, fail-degraded).
//
// Runs a TrafficSpec against one persistent runtime::Device: requests are
// admitted as the host timeline reaches their arrival, queued, and served
// in EDF order — both at the request queue (earliest absolute deadline
// next) and at block-dispatch granularity (the session installs a
// sched::EdfKernelScheduler carrying the request's per-stream deadlines).
//
// Overload is handled explicitly instead of letting latency collapse:
//   * degrade ladder — when the predicted completion of the next request
//     would miss its deadline (or a session reports Recovery::kDegrade),
//     the engine drops one redundancy level: TMR -> DCLS -> baseline.
//     Recovery is hysteretic: only after 4 consecutive on-time
//     completions with at most one request queued does the level step back
//     up, so the engine cannot flap at the overload boundary.
//   * load shedding — requests whose deadline already passed while queued
//     are dropped (they could only waste capacity), and the queue depth is
//     capped at 64; every drop is accounted per tenant and per reason.
//
// Safety cadence between requests: a periodic scheduler BIST (paper §IV.C)
// and, when configured, an interval CheckpointPolicy so kRollback tenants
// always have fresh restore points mid-stream.
//
// Telemetry is the ServeResult: served and dropped counts, per-tenant drops
// and deadline misses, degrade transitions, response percentiles, and the
// queue-depth series with its high watermark. An optional tracer adds
// request spans and control instants on host tracks.
//
// Determinism: the device timeline, the arrival stream, the EDF order, the
// degrade ladder and every percentile are functions of (spec, seed) only —
// the same spec reproduces bit-identical results under both sim engines.
#pragma once

#include <string>
#include <vector>

#include "common/percentiles.h"
#include "obs/trace.h"
#include "runtime/device.h"
#include "serve/traffic.h"

namespace higpu::serve {

struct ServeSpec {
  TrafficSpec traffic;
  sim::GpuParams gpu;
  runtime::PlatformParams platform;
  /// Placement policy for every session (also the BIST policy); the EDF
  /// scheduler keeps this policy's placement contract.
  sched::Policy policy = sched::Policy::kSrrs;
  /// Period of the scheduler BIST cadence (0 = no BIST).
  u64 bist_interval_ns = 0;
  /// Interval CheckpointPolicy installed on the device (0 = none); gives
  /// kRollback tenants mid-stream restore points.
  u64 ckpt_interval_cycles = 0;

  // ---- Observability (pure observers; results stay bit-identical) --------
  /// Optional tracer attached to the device for the run; the engine adds
  /// host tracks for request spans (kReqServe), enqueue/shed instants and
  /// degrade transitions. Not part of the spec's identity/label.
  obs::Tracer* tracer = nullptr;

  void validate() const;
  std::string label() const;
};

/// Why a degrade-ladder transition happened.
enum class DegradeReason : u8 {
  kDeadlinePressure,  // predicted completion past the deadline
  kSessionDegrade,    // ExecSession reported Recovery::kDegrade
  kRecovered,         // hysteretic step back up
};
const char* degrade_reason_name(DegradeReason r);

struct DegradeTransition {
  u64 t_ns = 0;
  u32 from_level = 0;
  u32 to_level = 0;
  DegradeReason reason = DegradeReason::kDeadlinePressure;
  u32 queue_depth = 0;

  bool operator==(const DegradeTransition& other) const = default;
};

/// One served request, in completion order (the determinism witness).
struct Completion {
  u32 request_id = 0;
  u32 tenant = 0;
  u32 level = 0;        // degrade level it was served at
  u64 start_ns = 0;     // dispatch time (queue wait = start - arrival)
  u64 finish_ns = 0;
  u64 response_ns = 0;  // finish - arrival
  bool deadline_met = false;

  bool operator==(const Completion& other) const = default;
};

/// Per-tenant telemetry.
struct TenantStats {
  std::string name;
  u64 offered = 0;
  u64 served = 0;
  u64 dropped_expired = 0;
  u64 dropped_overflow = 0;
  u64 deadline_misses = 0;   // served but late
  u64 degraded_served = 0;   // served at level > 0
  Percentiles response_ns;
  Percentiles queue_wait_ns;
  /// ftti_ns - detect/react response of the session (negative = FTTI bust).
  Percentiles ftti_slack_ns;

  bool operator==(const TenantStats& other) const = default;
};

struct ServeResult {
  std::string label;
  std::vector<TenantStats> tenants;
  /// Response-time percentiles split by the degrade level served at.
  std::vector<Percentiles> by_level;
  std::vector<DegradeTransition> transitions;
  std::vector<Completion> completions;

  u64 served = 0;
  u64 dropped = 0;
  u64 deadline_misses = 0;
  u64 verify_failures = 0;
  u64 max_queue_depth = 0;
  /// Modelled time at which max_queue_depth was first reached (the
  /// high-watermark instant; 0 when the queue never held a request).
  u64 queue_high_watermark_ns = 0;
  /// Queue depth over modelled time: one (t_ns, depth) point per change,
  /// deterministic (same under both engines).
  std::vector<std::pair<u64, u32>> queue_depth_series;
  u64 bist_runs = 0;
  u64 bist_failures = 0;
  /// Every policy capture the serving device took (interval checkpoints and
  /// pre-kernel anchors), during requests and BIST alike.
  u64 checkpoints_captured = 0;
  /// Host-timeline span of the whole serving run and the busy part of it.
  u64 span_ns = 0;
  u64 busy_ns = 0;

  double utilization() const {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(busy_ns) /
                              static_cast<double>(span_ns);
  }
  /// Completed requests per modelled second.
  double sustained_rps() const {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(served) * 1e9 /
                              static_cast<double>(span_ns);
  }

  /// Schema "higpu.serve/1".
  std::string to_json(const ServeSpec& spec) const;
  /// Per-tenant CSV (one row per tenant).
  std::string to_csv() const;

  /// The determinism witness: every member compares exactly.
  bool operator==(const ServeResult& other) const = default;
};

/// Run the serving loop to completion (every generated request served or
/// dropped) and return the telemetry.
ServeResult run_serve(const ServeSpec& spec);

/// The effective redundancy of `base` at degrade `level`: each level strips
/// one copy (TMR -> DCLS -> baseline), majority vote falls back to bitwise
/// below 3 copies, recovery falls back to kNone at 1 copy, and explicit
/// SRRS starts are cleared (the even auto-spread re-derives diversity for
/// the reduced copy count).
core::RedundancySpec degrade(const core::RedundancySpec& base, u32 level);

}  // namespace higpu::serve
