// Observability layer: ring-buffer tracer semantics, Chrome trace schema,
// flight recorder, per-SM cycle attribution (the issued/stall/idle split
// must exactly tile the GPU clock), the serve queue-depth telemetry, the
// journal's auxiliary records and the wire codecs that ship worker logs /
// flight dumps to the coordinator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/jsonl.h"
#include "common/log.h"
#include "core/exec.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "exp/campaign.h"
#include "exp/result_io.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/device.h"
#include "serve/engine.h"
#include "tests/test_kernels.h"

namespace higpu {
namespace {

using testing::make_launch;
using testing::make_spin_kernel;
using testing::make_store_kernel;

// ---- Tracer rings ----------------------------------------------------------

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  obs::Tracer tr(8);
  const u32 t = tr.track("sm0", obs::kPidDevice);
  for (u64 i = 0; i < 20; ++i)
    tr.emit(t, obs::Ev::kWarpStall, /*ts=*/i, /*dur=*/1, /*a0=*/i);
  EXPECT_EQ(tr.events_recorded(), 20u);
  EXPECT_EQ(tr.events_dropped(), 12u);
  const std::vector<obs::TraceEvent> evs = tr.events(t);
  ASSERT_EQ(evs.size(), 8u);
  for (size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].ts, 12 + i) << "oldest-first order after wrap";
}

TEST(Tracer, TrackRegistrationIsIdempotent) {
  obs::Tracer tr;
  const u32 a = tr.track("dram", obs::kPidDevice);
  const u32 b = tr.track("dram", obs::kPidDevice);
  const u32 c = tr.track("serve", obs::kPidHost);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(tr.num_tracks(), 2u);
  EXPECT_EQ(tr.track_name(a), "dram");
}

TEST(Tracer, TailMergesTracksByTimestamp) {
  obs::Tracer tr(16);
  const u32 a = tr.track("a", obs::kPidDevice);
  const u32 b = tr.track("b", obs::kPidDevice);
  tr.instant(a, obs::Ev::kMshrAlloc, 10);
  tr.instant(b, obs::Ev::kMshrFill, 5);
  tr.instant(a, obs::Ev::kMshrAlloc, 30);
  tr.instant(b, obs::Ev::kMshrFill, 20);
  const std::vector<obs::TaggedEvent> tail = tr.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].ev.ts, 10u);
  EXPECT_EQ(tail[1].ev.ts, 20u);
  EXPECT_EQ(tail[2].ev.ts, 30u);
}

// ---- Chrome trace JSON schema ----------------------------------------------

TEST(Tracer, ChromeJsonValidatesAndRoundTrips) {
  obs::Tracer tr;
  const u32 sm = tr.track("sm0", obs::kPidDevice);
  const u32 host = tr.track("serve.requests", obs::kPidHost);
  tr.emit(sm, obs::Ev::kWarpStall, 100, 40, 3,
          static_cast<u64>(obs::StallCls::kScoreboard));
  tr.instant(sm, obs::Ev::kCheckpoint, 150, 150);
  tr.emit(host, obs::Ev::kReqServe, 1'000'000, 250'000, 7);

  const std::string json = tr.to_chrome_json();
  EXPECT_EQ(obs::validate_chrome_trace(json), "");

  const JsonValue root = parse_json(json);
  EXPECT_EQ(root.get_string("schema"), obs::kTraceSchema);
  const JsonValue& evs = root.at("traceEvents");
  ASSERT_EQ(evs.kind, JsonValue::Kind::kArray);
  u32 spans = 0, instants = 0, meta = 0;
  for (const JsonValue& e : evs.array) {
    const std::string ph = e.get_string("ph");
    if (ph == "X") ++spans;
    else if (ph == "i") ++instants;
    else if (ph == "M") ++meta;
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(meta, 4u);  // 2 process_name + 2 thread_name
}

TEST(Tracer, ValidatorRejectsMalformedTraces) {
  EXPECT_NE(obs::validate_chrome_trace("not json"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"schema\":\"wrong/1\","
                                       "\"traceEvents\":[]}"), "");
  // An event referencing a track with no thread_name metadata record.
  EXPECT_NE(obs::validate_chrome_trace(
                std::string("{\"schema\":\"") + obs::kTraceSchema +
                "\",\"traceEvents\":[{\"name\":\"kernel\",\"ph\":\"i\","
                "\"pid\":0,\"tid\":9,\"ts\":1}]}"),
            "");
}

TEST(Tracer, FlightJsonIsSingleLineAndTagged) {
  obs::Tracer tr;
  const u32 t = tr.track("worker", obs::kPidHost);
  tr.instant(t, obs::Ev::kUnitShip, 1000, 42, 0);
  tr.instant(t, obs::Ev::kWorkerDeath, 2000, 3, 0);
  const std::string dump = tr.flight_json(8);
  EXPECT_EQ(dump.find('\n'), std::string::npos) << "must fit one JSONL line";
  const JsonValue v = parse_json(dump);
  EXPECT_EQ(v.get_string("schema"), obs::kFlightSchema);
  EXPECT_EQ(v.get_u64("recorded"), 2u);
  ASSERT_EQ(v.at("events").array.size(), 2u);
  EXPECT_EQ(v.at("events").array[1].get_string("name"), "worker_death");
}

// ---- Cycle attribution -----------------------------------------------------

TEST(CycleAttribution, ClassesTileTheGpuClockExactly) {
  exp::ScenarioSpec spec;
  spec.workload = "hotspot";
  spec.scale = workloads::Scale::kTest;
  const exp::ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  const u64 total = r.stats.get("cycles");
  ASSERT_GT(total, 0u);
  ASSERT_FALSE(r.sm_profile.empty());
  u64 issued = 0, sb = 0, bar = 0, str = 0;
  for (const obs::SmCycles& c : r.sm_profile) {
    // The invariant behind run_workload --profile: every SM's five classes
    // sum to the GPU's total cycle count, with no gap and no overlap.
    EXPECT_EQ(c.total(), total);
    issued += c.issued;
    sb += c.scoreboard;
    bar += c.barrier;
    str += c.structural;
  }
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(issued, r.stats.get("cycles_issued"));
  EXPECT_EQ(sb, r.stats.get("cycles_stall_scoreboard"));
  EXPECT_EQ(bar, r.stats.get("cycles_stall_barrier"));
  EXPECT_EQ(str, r.stats.get("cycles_stall_structural"));
}

TEST(CycleAttribution, ResultJsonlRoundTripsSmProfile) {
  exp::ScenarioSpec spec;
  spec.workload = "bfs";
  spec.scale = workloads::Scale::kTest;
  const exp::ScenarioResult r = exp::run_scenario(spec, 3);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.sm_profile.empty());
  const exp::ScenarioResult back = exp::result_from_jsonl(exp::result_to_jsonl(r));
  EXPECT_EQ(back.sm_profile, r.sm_profile);
  EXPECT_TRUE(r.deterministic_fields_equal(back));
}

TEST(CycleAttribution, ProfileTableRendersAllRow) {
  std::vector<obs::SmCycles> sms(2);
  sms[0] = {10, 5, 0, 5, 80};
  sms[1] = {0, 0, 0, 0, 100};
  const std::string table = obs::profile_table(sms, 100);
  EXPECT_NE(table.find("all"), std::string::npos);
  EXPECT_NE(table.find("scoreboard"), std::string::npos);
}

// ---- Flight recorder on a redundancy miscompare ----------------------------

TEST(FlightRecorder, CompareMismatchDumpsTraceTail) {
  runtime::Device dev;
  obs::Tracer tracer;
  dev.set_tracer(&tracer);
  core::ExecSession::Config cfg;
  cfg.policy = sched::Policy::kSrrs;
  core::ExecSession s(dev, cfg);
  const u32 n = 256;
  const core::ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_store_kernel(), sim::Dim3{2, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  EXPECT_TRUE(s.flight_dumps().empty()) << "no detection yet";

  // Corrupt one word of copy 1 directly in device memory: the next compare
  // must detect it and capture the black box.
  dev.gpu().store().write32(out.copy[1] + 40, 0xBAD);
  EXPECT_TRUE(s.compare(out, n * 4).detected());
  ASSERT_EQ(s.flight_dumps().size(), 1u);

  const JsonValue v = parse_json(s.flight_dumps()[0]);
  EXPECT_EQ(v.get_string("schema"), obs::kFlightSchema);
  bool saw_compare_fail = false;
  for (const JsonValue& e : v.at("events").array)
    if (e.get_string("name") == "compare_fail") saw_compare_fail = true;
  EXPECT_TRUE(saw_compare_fail)
      << "the dump must include the triggering miscompare event";
}

TEST(FlightRecorder, NoTracerMeansNoDumps) {
  runtime::Device dev;
  core::ExecSession::Config cfg;
  cfg.policy = sched::Policy::kSrrs;
  core::ExecSession s(dev, cfg);
  const u32 n = 64;
  const core::ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_store_kernel(), sim::Dim3{1, 1, 1}, sim::Dim3{64, 1, 1},
           {out, n});
  s.sync();
  dev.gpu().store().write32(out.copy[1] + 8, 0xBAD);
  EXPECT_TRUE(s.compare(out, n * 4).detected());
  EXPECT_TRUE(s.flight_dumps().empty());
}

// ---- Serve queue-depth telemetry -------------------------------------------

TEST(ServeTelemetry, QueueDepthSeriesAndWatermarkAreDeterministic) {
  serve::ServeSpec spec;
  spec.traffic.pattern = serve::TrafficSpec::Pattern::kBursty;
  spec.traffic.seed = 11;
  spec.traffic.offered_rps = 4000.0;
  spec.traffic.duration_ns = 5'000'000;
  spec.traffic.max_requests = 24;
  serve::TenantSpec t;
  t.name = "camera";
  t.workload = "nn";
  t.scale = workloads::Scale::kTest;
  t.deadline_ns = 20'000'000;
  spec.traffic.tenants.push_back(t);

  const serve::ServeResult a = serve::run_serve(spec);
  const serve::ServeResult b = serve::run_serve(spec);
  EXPECT_TRUE(a == b) << "telemetry must not break serve determinism";

  ASSERT_FALSE(a.queue_depth_series.empty());
  u32 max_depth = 0;
  u64 at = 0;
  for (const auto& [t_ns, depth] : a.queue_depth_series)
    if (depth > max_depth) {
      max_depth = depth;
      at = t_ns;
    }
  EXPECT_EQ(max_depth, a.max_queue_depth);
  EXPECT_EQ(at, a.queue_high_watermark_ns)
      << "watermark timestamp must name the first time the peak was reached";
  // The series is on the modelled clock, monotonically ordered.
  for (size_t i = 1; i < a.queue_depth_series.size(); ++i)
    EXPECT_GE(a.queue_depth_series[i].first,
              a.queue_depth_series[i - 1].first);
}

// ---- Wire codecs and journal aux records -----------------------------------

TEST(WireCodecs, LogAndFlightRoundTrip) {
  dist::Log msg;
  msg.level = static_cast<u32>(LogLevel::kWarn);
  msg.line = "+42ms w3 WARN: bank conflict storm";
  const dist::Log back = dist::decode<dist::Log>(dist::encode(msg));
  EXPECT_EQ(back.level, msg.level);
  EXPECT_EQ(back.line, msg.line);

  const std::string dump = "{\"schema\":\"higpu.flight/1\",\"events\":[]}";
  EXPECT_EQ(dist::decode<dist::Flight>(dist::encode(dist::Flight{dump})).json,
            dump);

  EXPECT_TRUE(dist::known_msg(static_cast<u8>(dist::Msg::kLog)));
  EXPECT_TRUE(dist::known_msg(static_cast<u8>(dist::Msg::kFlight)));
  EXPECT_FALSE(dist::known_msg(8));
}

TEST(JournalAux, ScanSkipsAndCountsAuxRecords) {
  const std::string path = ::testing::TempDir() + "aux_journal.jsonl";
  {
    dist::Journal j = dist::Journal::create(path, /*fingerprint=*/77,
                                            /*scenarios=*/2);
    exp::ScenarioResult r;
    r.index = 0;
    r.label = "a";
    r.workload = "nn";
    j.add(r);
    j.add_aux("{\"log\":{\"worker\":1,\"level\":2,\"line\":\"hello\"}}");
    j.add_aux("{\"flight\":{\"worker\":1,\"dump\":{\"schema\":"
              "\"higpu.flight/1\",\"events\":[]}}}");
    r.index = 1;
    j.add(r);
    // The fleet metrics line that journals from earlier builds end with.
    j.add_aux("{\"fleet\":{\"schema\":\"higpu.metrics/1\",\"at\":9,"
              "\"counters\":{},\"gauges\":{},\"histograms\":{}}}");
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(scan.fingerprint, 77u);
  EXPECT_EQ(scan.results.size(), 2u);
  EXPECT_EQ(scan.aux_records, 3u);
  EXPECT_FALSE(scan.torn_tail);
}

// ---- Pluggable log sink ----------------------------------------------------

TEST(LogSink, SinkReceivesPrefixedTimestampedLines) {
  std::vector<std::pair<LogLevel, std::string>> got;
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_prefix("w7");
  set_log_sink([&got](LogLevel lvl, const std::string& line) {
    got.emplace_back(lvl, line);
  });
  log_info("checkpoint captured");
  log_debug("below threshold");  // filtered: must not reach the sink
  set_log_sink(nullptr);
  set_log_prefix("");
  set_log_level(before);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, LogLevel::kInfo);
  EXPECT_NE(got[0].second.find("w7"), std::string::npos);
  EXPECT_NE(got[0].second.find("INFO: checkpoint captured"),
            std::string::npos);
  EXPECT_EQ(got[0].second.rfind("+", 0), 0u) << "monotonic +<ms> stamp";
}

}  // namespace
}  // namespace higpu
