// Zero-perturbation guarantee: attaching an obs::Tracer changes no
// deterministic result field. Every workload runs with tracing off and on —
// across both sim engines and baseline/TMR redundancy — and the two
// ScenarioResults must be bit-identical (including the cycle-
// attribution counters and per-SM profile, which are counted
// unconditionally). The traced run must also produce a schema-valid,
// non-empty Chrome trace, so "identical" can never be satisfied by tracing
// silently not happening. A rollback fork that replays the clean base's
// last sync round instead of simulating it is held to the same guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exec.h"
#include "exp/campaign.h"
#include "exp/units.h"
#include "obs/trace.h"
#include "runtime/device.h"
#include "workloads/workload.h"

namespace higpu {
namespace {

struct Config {
  sim::SimEngine engine;
  bool tmr;
};

std::string config_name(const Config& c) {
  std::string s = c.engine == sim::SimEngine::kDense ? "dense" : "event";
  s += c.tmr ? "+tmr" : "+base";
  return s;
}

class TraceIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceIdentity, TracerOnChangesNoDeterministicField) {
  const std::vector<Config> configs = {
      {sim::SimEngine::kDense, false},
      {sim::SimEngine::kDense, true},
      {sim::SimEngine::kEvent, false},
      {sim::SimEngine::kEvent, true},
  };
  for (const Config& c : configs) {
    SCOPED_TRACE(config_name(c));
    exp::ScenarioSpec spec;
    spec.workload = GetParam();
    spec.scale = workloads::Scale::kTest;
    spec.gpu.engine = c.engine;
    spec.redundancy = c.tmr ? core::RedundancySpec::tmr()
                            : core::RedundancySpec::baseline();

    const exp::ScenarioResult off = exp::run_scenario(spec);
    ASSERT_TRUE(off.ok) << off.error;

    obs::Tracer tracer;
    const exp::ScenarioProbe attach =
        [&tracer](runtime::Device& dev, workloads::Workload&,
                  core::ExecSession&) { dev.set_tracer(&tracer); };
    const exp::ScenarioResult on =
        exp::run_scenario(spec, 0, nullptr, attach);
    ASSERT_TRUE(on.ok) << on.error;

    EXPECT_TRUE(off.deterministic_fields_equal(on))
        << "tracing perturbed the simulation";
    // Pin the fields a failure would most plausibly hide in, for a usable
    // diagnostic when the blanket equality trips.
    EXPECT_EQ(off.kernel_cycles, on.kernel_cycles);
    EXPECT_EQ(off.elapsed_ns, on.elapsed_ns);
    EXPECT_EQ(off.sm_profile, on.sm_profile);
    EXPECT_TRUE(off.stats == on.stats);

    // The traced run must really have traced something valid.
    EXPECT_GT(tracer.events_recorded(), 0u);
    EXPECT_EQ(obs::validate_chrome_trace(tracer.to_chrome_json()), "");
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TraceIdentity,
                         ::testing::ValuesIn(workloads::all_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '+' || c == '-') c = '_';
                           return name;
                         });

TEST(TraceIdentityReplay, ReplayedRoundTracedAsOneRestore) {
  exp::ScenarioSpec spec;
  spec.workload = "hotspot";
  spec.redundancy = core::RedundancySpec::dcls_rollback(2);
  const exp::ScenarioSet set = exp::ScenarioSet::of(spec).sweep_faults(
      {exp::FaultPlan::none(), exp::FaultPlan::droop(12005, 200, 5)});
  const exp::GroupBase base = exp::run_group_base(set, {0, 1});
  ASSERT_TRUE(base.ok()) << base.result.error;
  ASSERT_NE(base.round.exit, nullptr);

  u64 replayed = 0;
  u64 replay_seq = 0;
  const exp::ScenarioProbe probe = [&](runtime::Device& dev,
                                       workloads::Workload&,
                                       core::ExecSession&) {
    replayed = dev.rounds_replayed();
    // The replayed synchronize() captured the last pre-kernel anchor.
    replay_seq = dev.checkpoints().back()->sync_seq;
  };
  const exp::ScenarioResult off = exp::run_fork(set, 1, base, probe);
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_EQ(1u, replayed);

  obs::Tracer tracer;
  const exp::ScenarioProbe attach =
      [&tracer](runtime::Device& dev, workloads::Workload&,
                core::ExecSession&) { dev.set_tracer(&tracer); };
  replayed = 0;
  const exp::ScenarioResult on = exp::run_fork(set, 1, base, probe, attach);
  ASSERT_TRUE(on.ok) << on.error;
  EXPECT_EQ(1u, replayed);
  EXPECT_TRUE(off.deterministic_fields_equal(on))
      << "tracing perturbed the replaying fork";
  EXPECT_EQ(off.kernel_cycles, on.kernel_cycles);
  EXPECT_EQ(off.elapsed_ns, on.elapsed_ns);

  // One restore instant at the round's exit, in the layout of every
  // snapshot instant: ts = exit cycle, a0 = the replayed synchronize()'s
  // sync_seq, a1 = the exit snapshot's bytes.
  const Cycle exit = base.round.exit->cycle;
  u32 replays = 0;
  for (const obs::TraceEvent& ev :
       tracer.events(tracer.track("ckpt", obs::kPidDevice))) {
    if (ev.kind != obs::Ev::kRestore || ev.ts != exit) continue;
    ++replays;
    EXPECT_EQ(replay_seq, ev.a0);
    EXPECT_EQ(base.round.exit->size_bytes(), ev.a1);
  }
  EXPECT_EQ(1u, replays);
  EXPECT_EQ(obs::validate_chrome_trace(tracer.to_chrome_json()), "");
}

}  // namespace
}  // namespace higpu
