// Continuous-operation serving mode: deterministic traffic generation, EDF
// admission, the overload degrade ladder, safety cadence, and the exact
// percentile telemetry. The headline guarantee under test: the same
// ServeSpec produces bit-identical completion order, percentiles and
// degrade transitions under both sim engines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/percentiles.h"
#include "obs/trace.h"
#include "runtime/device.h"
#include "serve/engine.h"
#include "serve/traffic.h"

namespace higpu {
namespace {

using serve::Request;
using serve::ServeResult;
using serve::ServeSpec;
using serve::TenantSpec;
using serve::TrafficSpec;

// ---- Percentiles -----------------------------------------------------------

TEST(PercentilesTest, NearestRankExact) {
  Percentiles p;
  for (i64 v = 1; v <= 100; ++v) p.sample(101 - v);  // insert descending
  EXPECT_EQ(p.count(), 100u);
  EXPECT_EQ(p.min(), 1);
  EXPECT_EQ(p.max(), 100);
  EXPECT_EQ(p.p50(), 50);
  EXPECT_EQ(p.p95(), 95);
  EXPECT_EQ(p.p99(), 99);
  EXPECT_EQ(p.p999(), 100);  // ceil(0.999 * 100) = 100
  EXPECT_EQ(p.percentile(0.0), 1);
  EXPECT_EQ(p.percentile(100.0), 100);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentilesTest, SmallAndNegativeSamples) {
  Percentiles p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.p99(), 0);  // empty -> 0 by contract
  p.sample(-5);
  EXPECT_EQ(p.p50(), -5);
  EXPECT_EQ(p.p999(), -5);
  p.sample(7);
  // N=2: ceil(0.5*2)=1 -> first sorted sample.
  EXPECT_EQ(p.p50(), -5);
  EXPECT_EQ(p.p95(), 7);
  EXPECT_EQ(p.min(), -5);
  EXPECT_EQ(p.sum(), 2);
}

TEST(PercentilesTest, MergeAndEquality) {
  Percentiles a, b, c;
  a.sample(1);
  a.sample(2);
  b.sample(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 3);
  c.sample(1);
  c.sample(2);
  c.sample(3);
  EXPECT_TRUE(a == c);  // same values, same order
}

// ---- Traffic generation ----------------------------------------------------

TrafficSpec small_traffic(TrafficSpec::Pattern pattern, u64 seed) {
  TrafficSpec t;
  t.pattern = pattern;
  t.seed = seed;
  t.offered_rps = 2000.0;
  t.duration_ns = 10'000'000;
  TenantSpec camera;
  camera.name = "camera";
  camera.workload = "nn";
  camera.redundancy = core::RedundancySpec::dcls();
  camera.deadline_ns = 5'000'000;
  camera.weight = 3;
  TenantSpec radar;
  radar.name = "radar";
  radar.workload = "nn";
  radar.redundancy = core::RedundancySpec::baseline();
  radar.deadline_ns = 2'000'000;
  radar.weight = 1;
  t.tenants = {camera, radar};
  return t;
}

TEST(TrafficTest, GenerationIsDeterministic) {
  for (const auto pattern :
       {TrafficSpec::Pattern::kPeriodic, TrafficSpec::Pattern::kPoisson,
        TrafficSpec::Pattern::kBursty}) {
    const TrafficSpec t = small_traffic(pattern, 7);
    const std::vector<Request> a = t.generate();
    const std::vector<Request> b = t.generate();
    ASSERT_FALSE(a.empty()) << serve::pattern_name(pattern);
    EXPECT_EQ(a, b) << serve::pattern_name(pattern);
    // Sorted arrivals, ids in order, absolute deadlines attached.
    for (u32 i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, i);
      if (i > 0) EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
      EXPECT_EQ(a[i].deadline_ns,
                a[i].arrival_ns + t.tenants[a[i].tenant].deadline_ns);
    }
  }
}

TEST(TrafficTest, SeedChangesPoissonArrivals) {
  const std::vector<Request> a =
      small_traffic(TrafficSpec::Pattern::kPoisson, 1).generate();
  const std::vector<Request> b =
      small_traffic(TrafficSpec::Pattern::kPoisson, 2).generate();
  EXPECT_NE(a, b);
}

TEST(TrafficTest, TraceRoundtrip) {
  const TrafficSpec t = small_traffic(TrafficSpec::Pattern::kPoisson, 11);
  const std::vector<Request> orig = t.generate();
  const std::string text = t.format_trace(orig);
  const std::vector<Request> replay = t.parse_trace(text);
  EXPECT_EQ(orig, replay);

  TrafficSpec replayer = t;
  replayer.pattern = TrafficSpec::Pattern::kTrace;
  replayer.trace = replay;
  EXPECT_EQ(replayer.generate(), orig);
}

TEST(TrafficTest, ValidateRejectsBadSpecs) {
  TrafficSpec t = small_traffic(TrafficSpec::Pattern::kPoisson, 1);
  t.tenants.clear();
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = small_traffic(TrafficSpec::Pattern::kPoisson, 1);
  t.tenants[1].name = t.tenants[0].name;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = small_traffic(TrafficSpec::Pattern::kPoisson, 1);
  t.tenants[0].workload = "no-such-workload";
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = small_traffic(TrafficSpec::Pattern::kPoisson, 1);
  t.offered_rps = 0.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// ---- Degrade ladder --------------------------------------------------------

TEST(ServeTest, DegradeLadderStripsCopies) {
  const core::RedundancySpec tmr = core::RedundancySpec::tmr();
  const core::RedundancySpec l1 = serve::degrade(tmr, 1);
  EXPECT_EQ(l1.n_copies, 2u);
  EXPECT_EQ(l1.compare, core::RedundancySpec::Compare::kBitwise);
  const core::RedundancySpec l2 = serve::degrade(tmr, 2);
  EXPECT_EQ(l2.n_copies, 1u);
  EXPECT_EQ(l2.recovery, core::RedundancySpec::Recovery::kNone);
  // Degrading past the bottom stays at baseline.
  EXPECT_EQ(serve::degrade(core::RedundancySpec::dcls(), 5).n_copies, 1u);
}

// ---- Serving determinism across engines ------------------------------------

ServeSpec small_serve(sim::SimEngine engine) {
  ServeSpec s;
  s.traffic = small_traffic(TrafficSpec::Pattern::kPoisson, 13);
  s.traffic.offered_rps = 500.0;
  s.traffic.duration_ns = 20'000'000;
  s.traffic.max_requests = 8;
  // Generous deadlines: this spec exercises the steady-state path.
  s.traffic.tenants[0].deadline_ns = 400'000'000;
  s.traffic.tenants[1].deadline_ns = 400'000'000;
  s.gpu.engine = engine;
  s.policy = sched::Policy::kSrrs;
  return s;
}

TEST(ServeTest, BitIdenticalAcrossEngines) {
  const ServeResult reference = run_serve(small_serve(sim::SimEngine::kDense));
  ASSERT_GT(reference.served, 0u);
  EXPECT_EQ(reference.dropped, 0u);
  EXPECT_EQ(reference.verify_failures, 0u);

  const ServeResult r = run_serve(small_serve(sim::SimEngine::kEvent));
  EXPECT_TRUE(r == reference);
  EXPECT_EQ(r.span_ns, reference.span_ns);
  EXPECT_EQ(r.busy_ns, reference.busy_ns);
}

TEST(ServeTest, CompletionsFollowEdfOrder) {
  // Three same-time arrivals with different deadlines: the engine must
  // serve them earliest-deadline-first regardless of trace order.
  TrafficSpec t;
  t.pattern = TrafficSpec::Pattern::kTrace;
  TenantSpec slow, mid, fast;
  slow.name = "slow";
  slow.deadline_ns = 900'000'000;
  mid.name = "mid";
  mid.deadline_ns = 600'000'000;
  fast.name = "fast";
  fast.deadline_ns = 300'000'000;
  for (TenantSpec* ts : {&slow, &mid, &fast}) {
    ts->workload = "nn";
    ts->redundancy = core::RedundancySpec::baseline();
  }
  t.tenants = {slow, mid, fast};
  t.trace = {{0, 0, 1000, 0}, {0, 1, 1000, 0}, {0, 2, 1000, 0}};

  ServeSpec s;
  s.traffic = t;
  const ServeResult r = run_serve(s);
  ASSERT_EQ(r.completions.size(), 3u);
  EXPECT_EQ(r.completions[0].tenant, 2u);  // fast first
  EXPECT_EQ(r.completions[1].tenant, 1u);
  EXPECT_EQ(r.completions[2].tenant, 0u);
}

// ---- Overload: enter and exit degrade --------------------------------------

/// Service time of one request of `tenant` on an idle device (measured, so
/// the overload trace adapts to the cost model instead of hard-coding it).
u64 measure_service_ns(const TenantSpec& tenant) {
  TrafficSpec t;
  t.pattern = TrafficSpec::Pattern::kTrace;
  t.tenants = {tenant};
  t.trace = {{0, 0, 1000, 0}};
  ServeSpec s;
  s.traffic = t;
  const ServeResult r = run_serve(s);
  EXPECT_EQ(r.served, 1u);
  return r.completions.at(0).finish_ns - r.completions.at(0).start_ns;
}

TEST(ServeTest, OverloadEntersAndExitsDegradeWithDropAccounting) {
  TenantSpec tenant;
  tenant.name = "planner";
  tenant.workload = "nn";
  tenant.redundancy = core::RedundancySpec::tmr();

  // TMR service time on an idle device calibrates the whole scenario.
  tenant.deadline_ns = 1;  // irrelevant for the measurement run
  const u64 service = measure_service_ns(tenant);
  ASSERT_GT(service, 0u);
  // 2.5x service: the first two burst requests fit at full redundancy, the
  // third's predicted completion (start + est = arrival + 3x) overshoots by
  // ~0.5x — a robust margin that forces the ladder down.
  tenant.deadline_ns = 5 * service / 2;

  // Burst: 12 requests nearly at once (only ~2 can make the deadline at
  // full redundancy), then a relaxed tail spaced far apart so the
  // hysteresis can walk the ladder back up.
  TrafficSpec t;
  t.pattern = TrafficSpec::Pattern::kTrace;
  t.tenants = {tenant};
  for (u32 i = 0; i < 12; ++i)
    t.trace.push_back({0, 0, static_cast<u64>(1000 + i), 0});
  const u64 tail_start = 20 * service;
  for (u32 i = 0; i < 12; ++i)
    t.trace.push_back({0, 0, tail_start + i * 4 * service, 0});

  ServeSpec s;
  s.traffic = t;
  const ServeResult r = run_serve(s);

  // The burst provably entered degrade...
  bool entered = false, exited = false;
  for (const serve::DegradeTransition& tr : r.transitions) {
    if (tr.to_level > tr.from_level) entered = true;
    if (tr.reason == serve::DegradeReason::kRecovered &&
        tr.to_level < tr.from_level)
      exited = true;
  }
  EXPECT_TRUE(entered) << "no degrade transition under a 6x overload burst";
  EXPECT_TRUE(exited) << "hysteresis never recovered on the relaxed tail";
  // ...walked all the way back to full redundancy...
  ASSERT_FALSE(r.transitions.empty());
  EXPECT_EQ(r.transitions.back().to_level, 0u)
      << "the ladder ended degraded, not at full redundancy";
  EXPECT_EQ(r.verify_failures, 0u);
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_GT(r.tenants[0].degraded_served, 0u);
  // ...shed what could no longer make its deadline...
  EXPECT_GT(r.dropped, 0u);
  EXPECT_EQ(r.dropped,
            r.tenants[0].dropped_expired + r.tenants[0].dropped_overflow);
  EXPECT_EQ(r.served + r.dropped, r.tenants[0].offered);
  // ...and the relaxed tail is back on time.
  EXPECT_TRUE(r.completions.back().deadline_met);

  // Drop/degrade accounting lands in the JSON telemetry.
  const std::string json = r.to_json(s);
  EXPECT_NE(json.find("\"schema\": \"higpu.serve/1\""), std::string::npos);
  EXPECT_NE(json.find("\"transitions\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_expired\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline-pressure\""), std::string::npos);
  EXPECT_NE(json.find("\"recovered\""), std::string::npos);

  // Determinism holds through the full overload trajectory too.
  ServeSpec s2 = s;
  s2.gpu.engine = s.gpu.engine == sim::SimEngine::kEvent
                      ? sim::SimEngine::kDense
                      : sim::SimEngine::kEvent;
  EXPECT_TRUE(run_serve(s2) == r);
}

// ---- Safety cadence --------------------------------------------------------

TEST(ServeTest, BistAndCheckpointCadence) {
  ServeSpec s = small_serve(sim::SimEngine::kEvent);
  s.traffic.max_requests = 4;
  // DCLS tenant rolls back from interval snapshots; BIST fires between
  // requests on the host timeline.
  s.traffic.tenants[0].redundancy = core::RedundancySpec::dcls_rollback();
  s.bist_interval_ns = 1'000'000;
  s.ckpt_interval_cycles = 2000;
  const ServeResult r = run_serve(s);
  EXPECT_GT(r.served, 0u);
  EXPECT_GT(r.bist_runs, 0u);
  EXPECT_EQ(r.bist_failures, 0u);
  EXPECT_GT(r.checkpoints_captured, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(ServeTest, CountsEveryCheckpointOfALongRequest) {
  // One request whose kernels span many more interval captures than the
  // device's 8-entry interval ring holds: every capture is counted, not
  // just the ones still in the ring when the request ends.
  ServeSpec s = small_serve(sim::SimEngine::kEvent);
  s.traffic.max_requests = 1;
  s.bist_interval_ns = 0;
  s.ckpt_interval_cycles = 500;
  obs::Tracer tracer;
  s.tracer = &tracer;
  const ServeResult r = run_serve(s);
  ASSERT_EQ(r.served, 1u);

  // Each capture leaves one checkpoint instant on the device's ckpt track.
  u64 captures = 0;
  for (const obs::TraceEvent& e :
       tracer.events(tracer.track("ckpt", obs::kPidDevice)))
    if (e.kind == obs::Ev::kCheckpoint) ++captures;
  ASSERT_EQ(tracer.events_dropped(), 0u);
  EXPECT_GT(captures, u64{runtime::Device::kMaxIntervalCheckpoints} + 1);
  EXPECT_EQ(r.checkpoints_captured, captures);
}

// ---- Telemetry output ------------------------------------------------------

TEST(ServeTest, CsvHasOneRowPerTenant) {
  const ServeSpec s = small_serve(sim::SimEngine::kEvent);
  const ServeResult r = run_serve(s);
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("tenant,offered,served"), std::string::npos);
  EXPECT_NE(csv.find("camera"), std::string::npos);
  EXPECT_NE(csv.find("radar"), std::string::npos);
}

TEST(ServeTest, FttiSlackIsTracked) {
  const ServeSpec s = small_serve(sim::SimEngine::kEvent);
  const ServeResult r = run_serve(s);
  for (const serve::TenantStats& ts : r.tenants) {
    if (ts.served == 0) continue;
    EXPECT_EQ(ts.ftti_slack_ns.count(), ts.served);
    // Steady state, generous FTTI: slack must be positive.
    EXPECT_GT(ts.ftti_slack_ns.min(), 0);
  }
}

}  // namespace
}  // namespace higpu
