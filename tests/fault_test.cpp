// Fault injection and the §IV.C detection argument: chip-wide droops are
// detected under SRRS/HALF, permanent SM faults are detected whenever the
// policy guarantees spatial diversity, and scheduler faults stay observable.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>

#include "core/diversity.h"
#include "core/exec.h"
#include "exp/campaign.h"
#include "fault/injector.h"
#include "tests/test_kernels.h"

namespace higpu::fault {
namespace {

using core::ExecSession;
using core::ReplicaPtr;
using testing::make_spin_kernel;

TEST(Injector, ClassifyOutcomes) {
  EXPECT_EQ(classify(true, true), Outcome::kMasked);
  EXPECT_EQ(classify(false, true), Outcome::kDetected);
  EXPECT_EQ(classify(false, false), Outcome::kDetected);
  EXPECT_EQ(classify(true, false), Outcome::kSdc);
}

TEST(Injector, TallyAndCoverage) {
  CampaignTally t;
  t.count(Outcome::kMasked);
  t.count(Outcome::kDetected);
  t.count(Outcome::kDetected);
  t.count(Outcome::kSdc);
  EXPECT_EQ(t.total(), 4u);
  EXPECT_DOUBLE_EQ(t.diagnostic_coverage(), 2.0 / 3.0);
  CampaignTally clean;
  clean.count(Outcome::kMasked);
  EXPECT_DOUBLE_EQ(clean.diagnostic_coverage(), 1.0);  // nothing to detect
}

TEST(Injector, DroopCorruptsOnlyInsideWindow) {
  FaultInjector fi;
  fi.arm_droop(100, 10, 0);
  EXPECT_EQ(42u ^ fi.corrupt_lanes(0, 99, 1), 42u);
  EXPECT_EQ(42u ^ fi.corrupt_lanes(3, 105, 1), 43u);  // bit 0 flipped, any SM
  EXPECT_EQ(42u ^ fi.corrupt_lanes(0, 110, 1), 42u);  // window is half-open
  EXPECT_EQ(fi.corruptions(), 1u);
}

TEST(Injector, TransientSmRestrictsToOneSm) {
  FaultInjector fi;
  fi.arm_transient_sm(2, 100, 10, 4);
  EXPECT_EQ(0u ^ fi.corrupt_lanes(1, 105, 1), 0u);
  EXPECT_EQ(0u ^ fi.corrupt_lanes(2, 105, 1), 16u);
}

TEST(Injector, PermanentSmNeverEnds) {
  FaultInjector fi;
  fi.arm_permanent_sm(1, 50, 3);
  EXPECT_EQ(0u ^ fi.corrupt_lanes(1, 49, 1), 0u);
  EXPECT_EQ(0u ^ fi.corrupt_lanes(1, 1'000'000, 1), 8u);
}

TEST(Injector, SchedulerFaultRotatesMapping) {
  FaultInjector fi;
  fi.arm_scheduler_fault(0, 1);
  EXPECT_EQ(fi.corrupt_block_mapping(0, 6, 10), 1u);
  EXPECT_EQ(fi.corrupt_block_mapping(5, 6, 10), 0u);
  // Mapping queries are pure: the dense and event engines query at
  // different cadences. Diversions are counted once per placed block.
  EXPECT_EQ(fi.diverted_blocks(), 0u);
  fi.on_block_diverted(0, 1);
  fi.on_block_diverted(5, 0);
  EXPECT_EQ(fi.diverted_blocks(), 2u);
}

TEST(Injector, DisarmStopsEverything) {
  FaultInjector fi;
  fi.arm_droop(0, 1'000'000, 5);
  fi.disarm();
  EXPECT_EQ(7u ^ fi.corrupt_lanes(0, 10, 1), 7u);
}

TEST(Injector, CorruptLanesFlipsOnlyInsideTheWindow) {
  FaultInjector fi;
  fi.arm_droop(100, 10, 4);
  EXPECT_EQ(fi.corrupt_lanes(0, 99, ~0u), 0u);    // start - 1
  EXPECT_EQ(fi.corrupt_lanes(3, 100, 0x1u), 16u);  // start, any SM
  EXPECT_EQ(fi.corrupt_lanes(5, 109, 0x6u), 16u);  // end - 1
  EXPECT_EQ(fi.corrupt_lanes(0, 110, ~0u), 0u);    // end: half-open
  EXPECT_EQ(fi.corruptions(), 3u);
}

TEST(Injector, CorruptLanesCountsOneCorruptionPerLane) {
  FaultInjector fi;
  fi.arm_permanent_sm(1, 0, 0);
  u64 expected = 0;
  for (const u32 lanes : {0xFFFFFFFFu, 0x80000001u, 0x00F0F000u, 0x0u}) {
    EXPECT_EQ(fi.corrupt_lanes(1, 7, lanes), 1u);
    expected += static_cast<u64>(std::popcount(lanes));
    EXPECT_EQ(fi.corruptions(), expected);
  }
}

TEST(Injector, TransientCorruptLanesOnlyOnItsSm) {
  FaultInjector fi;
  fi.arm_transient_sm(2, 100, 10, 1);
  EXPECT_EQ(fi.corrupt_lanes(1, 105, 0xFu), 0u);
  EXPECT_EQ(fi.corrupt_lanes(3, 105, 0xFu), 0u);
  EXPECT_EQ(fi.corruptions(), 0u);
  EXPECT_EQ(fi.corrupt_lanes(2, 105, 0xFu), 2u);
  EXPECT_EQ(fi.corruptions(), 4u);
}

TEST(Injector, SchedulerFaultNeverFlipsResults) {
  FaultInjector fi;
  fi.arm_scheduler_fault(0, 1);
  for (const Cycle c : {Cycle{0}, Cycle{1}, Cycle{1'000'000}})
    for (u32 sm = 0; sm < 6; ++sm) EXPECT_EQ(fi.corrupt_lanes(sm, c, ~0u), 0u);
  EXPECT_EQ(fi.corruptions(), 0u);
}

TEST(Injector, TransientCorruptLanesStopsAfterRollback) {
  FaultInjector droop;
  droop.arm_droop(100, 10, 4);
  droop.on_rollback();
  EXPECT_EQ(droop.corrupt_lanes(0, 105, ~0u), 0u);
  FaultInjector tsm;
  tsm.arm_transient_sm(2, 100, 10, 4);
  tsm.on_rollback();
  EXPECT_EQ(tsm.corrupt_lanes(2, 105, ~0u), 0u);
  EXPECT_EQ(droop.corruptions() + tsm.corruptions(), 0u);
  // A permanent defect outlives the rollback.
  FaultInjector psm;
  psm.arm_permanent_sm(2, 100, 4);
  psm.on_rollback();
  EXPECT_EQ(psm.corrupt_lanes(2, 105, 0x3u), 16u);
}

TEST(Injector, InertUntilArmedAndAfterATransientRollsBack) {
  const struct {
    exp::FaultPlan plan;
    bool inert_after_rollback;
  } cases[] = {
      {exp::FaultPlan::droop(100, 10, 4), true},
      {exp::FaultPlan::transient_sm(2, 100, 10, 4), true},
      {exp::FaultPlan::permanent_sm(2, 100, 4), false},
      {exp::FaultPlan::scheduler(100, 1), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.plan.label());
    FaultInjector fi;
    EXPECT_TRUE(fi.inert());
    c.plan.arm(fi);
    EXPECT_FALSE(fi.inert());
    fi.on_rollback();
    EXPECT_EQ(c.inert_after_rollback, fi.inert());
    fi.disarm();
    EXPECT_TRUE(fi.inert());
  }
}

TEST(Injector, OverflowingWindowIsRefused) {
  // start + duration wraps past the last cycle: armed as is, the window
  // would end before it starts and never fire.
  const sim::GpuParams gpu;
  const Cycle wraps = kNeverCycle - 5;
  for (const exp::FaultPlan& plan :
       {exp::FaultPlan::droop(10, wraps, 3),
        exp::FaultPlan::transient_sm(1, 10, wraps, 3)}) {
    SCOPED_TRACE(plan.label());
    try {
      plan.validate(gpu);
      ADD_FAILURE() << "overflowing window accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(plan.label()), std::string::npos)
          << e.what();
    }
  }
  // The longest window that fits is valid, and fires.
  const exp::FaultPlan longest = exp::FaultPlan::droop(10, kNeverCycle - 10, 3);
  longest.validate(gpu);
  FaultInjector fi;
  longest.arm(fi);
  EXPECT_EQ(0u ^ fi.corrupt_lanes(0, 100, 1), 8u);
}

/// Run a redundant spin-kernel pair under `policy` with a droop armed in
/// [start, start+width). The fault is declared as an exp::FaultPlan — the
/// same value type campaign specs carry. Returns (outputs_match,
/// corruptions).
std::pair<bool, u64> run_with_droop(sched::Policy policy, Cycle start,
                                    Cycle width, u32 launch_gap = 400) {
  sim::GpuParams p;
  p.launch_gap_cycles = launch_gap;
  runtime::Device dev(p);
  FaultInjector fi;
  // bit 20: large numeric error
  exp::FaultPlan::droop(start, width, 20).arm(fi);
  dev.gpu().set_fault_hook(&fi);

  ExecSession::Config cfg;
  cfg.policy = policy;
  ExecSession s(dev, cfg);
  const u32 n = 12 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(200), sim::Dim3{12, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  const bool match = s.compare(out, n * 4).unanimous;
  return {match, fi.corruptions()};
}

TEST(DroopCampaign, SrrsDetectsMidExecutionDroop) {
  // Droop while only one copy can be executing (SRRS serializes).
  const auto [match, corruptions] = run_with_droop(sched::Policy::kSrrs, 2000, 50);
  EXPECT_GT(corruptions, 0u);
  EXPECT_FALSE(match);  // only one copy corrupted -> comparison flags it
}

TEST(DroopCampaign, HalfDetectsMidExecutionDroop) {
  const auto [match, corruptions] = run_with_droop(sched::Policy::kHalf, 2000, 50);
  EXPECT_GT(corruptions, 0u);
  EXPECT_FALSE(match);
}

/// The adversarial scenario of §IV.C: under the Default policy with no
/// dispatch slack, the redundant copies can execute the same computation at
/// (nearly) the same instant. We *compute* a droop window that corrupts the
/// exact same instruction set in both copies from the instruction trace,
/// then inject it and observe an undetected CCF (SDC). SRRS makes such a
/// window provably nonexistent.
struct ZeroGapProbe {
  core::InstrTraceCollector trace;
  u32 id_a = 0, id_b = 0;
  std::vector<u8> clean_output;
};

/// Straight-line FFMA chain: every datapath instruction feeds the output,
/// so corrupting ANY of them must change the result (no dead code to mask
/// the injection).
isa::ProgramPtr make_chain_kernel() {
  using namespace isa;
  KernelBuilder kb("chain");
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg acc = kb.reg();
  kb.movf(acc, 1.37f);
  for (int i = 0; i < 200; ++i)
    kb.ffma(acc, acc, fimm(1.000001f), fimm(0.25f));
  Reg addr = kb.reg();
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

ZeroGapProbe probe_zero_gap(sched::Policy policy, const u32 n,
                            fault::FaultInjector* fi = nullptr,
                            Cycle droop_start = 0, Cycle droop_end = 0,
                            std::vector<u8>* out_bytes = nullptr,
                            bool* out_match = nullptr) {
  sim::GpuParams p;
  p.launch_gap_cycles = 0;
  runtime::Device dev(p);
  ZeroGapProbe probe;
  dev.gpu().set_trace_sink(&probe.trace);
  if (fi != nullptr) {
    fi->arm_droop(droop_start, droop_end - droop_start, 2);
    dev.gpu().set_fault_hook(fi);
  }
  ExecSession::Config cfg;
  cfg.policy = policy;
  ExecSession s(dev, cfg);
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_chain_kernel(), sim::Dim3{1, 1, 1}, sim::Dim3{n, 1, 1},
           {out, n});
  s.sync();
  const bool match = s.compare(out, n * 4).unanimous;
  if (out_match != nullptr) *out_match = match;
  if (out_bytes != nullptr) {
    out_bytes->resize(n * 4);
    dev.gpu().store().read_block(out_bytes->data(), out.primary(), n * 4);
  }
  probe.id_a = s.pairs()[0].first;
  probe.id_b = s.pairs()[0].second;
  return probe;
}

TEST(DroopCampaign, DefaultZeroGapHasIdenticalCorruptionWindows) {
  std::vector<u8> clean;
  ZeroGapProbe probe =
      probe_zero_gap(sched::Policy::kDefault, 32, nullptr, 0, 0, &clean);
  const auto window = probe.trace.find_identical_corruption_window(
      probe.id_a, probe.id_b, /*max_width=*/16);
  ASSERT_TRUE(window.has_value())
      << "default policy with zero gap should expose aligned execution";

  // Inject exactly that window: both copies corrupted identically ->
  // comparison passes although the output is wrong (SDC).
  fault::FaultInjector fi;
  bool match = false;
  std::vector<u8> faulty;
  probe_zero_gap(sched::Policy::kDefault, 32, &fi, window->first,
                 window->second, &faulty, &match);
  EXPECT_GT(fi.corruptions(), 0u);
  EXPECT_TRUE(match) << "identical corruption must be invisible to DCLS";
  EXPECT_NE(clean, faulty) << "the output must actually be corrupted";
}

TEST(DroopCampaign, SrrsHasNoIdenticalCorruptionWindow) {
  ZeroGapProbe probe = probe_zero_gap(sched::Policy::kSrrs, 32);
  EXPECT_FALSE(probe.trace
                   .find_identical_corruption_window(probe.id_a, probe.id_b,
                                                     /*max_width=*/64)
                   .has_value());
}

TEST(DroopCampaign, HalfZeroGapStillSpatiallyDiverse) {
  // Even in the pathological zero-gap case, HALF keeps the copies on
  // disjoint SMs, so permanent/spatial CCFs remain covered.
  sim::GpuParams p;
  p.launch_gap_cycles = 0;
  runtime::Device dev(p);
  ExecSession::Config cfg;
  cfg.policy = sched::Policy::kHalf;
  ExecSession s(dev, cfg);
  const u32 n = 12 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(50), sim::Dim3{12, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  const auto rep =
      core::analyze_block_diversity(dev.gpu().block_records(), s.pairs());
  EXPECT_TRUE(rep.spatially_diverse());
}

TEST(PermanentFault, SrrsDetectsBrokenSm) {
  sim::GpuParams p;
  runtime::Device dev(p);
  FaultInjector fi;
  exp::FaultPlan::permanent_sm(2, 0, 20).arm(fi);
  dev.gpu().set_fault_hook(&fi);

  ExecSession::Config cfg;
  cfg.policy = sched::Policy::kSrrs;
  ExecSession s(dev, cfg);
  const u32 n = 12 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(100), sim::Dim3{12, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  // SRRS guarantees each logical block runs on different SMs across copies,
  // so a broken SM corrupts different logical blocks in each copy.
  EXPECT_FALSE(s.compare(out, n * 4).unanimous);
}

TEST(PermanentFault, HalfDetectsBrokenSm) {
  sim::GpuParams p;
  runtime::Device dev(p);
  FaultInjector fi;
  exp::FaultPlan::permanent_sm(4, 0, 20).arm(fi);
  dev.gpu().set_fault_hook(&fi);

  ExecSession::Config cfg;
  cfg.policy = sched::Policy::kHalf;
  ExecSession s(dev, cfg);
  const u32 n = 12 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(100), sim::Dim3{12, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  // SM 4 belongs to copy B's partition only: copies differ.
  EXPECT_FALSE(s.compare(out, n * 4).unanimous);
}

// ---- Scenario-level fault campaigns (the §IV.C sweep as a declarative
// ScenarioSet: spec construction + one run() call) ---------------------------

exp::ScenarioSpec campaign_base() {
  exp::ScenarioSpec spec;
  spec.workload = "hotspot";
  spec.scale = workloads::Scale::kTest;
  spec.seed = 2019;
  spec.gpu.launch_gap_cycles = 400;
  return spec;
}

TEST(FaultScenario, PermanentSmSweepDetectedUnderDiversePolicies) {
  const exp::ScenarioSet set =
      exp::ScenarioSet::of(campaign_base())
          .sweep_policies({sched::Policy::kHalf, sched::Policy::kSrrs})
          .sweep_faults({exp::FaultPlan::permanent_sm(0, 0, 20),
                         exp::FaultPlan::permanent_sm(3, 0, 20)});
  ASSERT_EQ(set.size(), 4u);
  const exp::CampaignResult campaign = exp::CampaignRunner().run(set);
  for (const exp::ScenarioResult& r : campaign.results) {
    ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_GT(r.corruptions, 0u) << r.label;
    // Spatial diversity turns the broken SM into a detected mismatch, never
    // an SDC.
    EXPECT_EQ(r.outcome, Outcome::kDetected) << r.label;
  }
}

TEST(FaultScenario, SchedulerFaultIsFunctionallyLatent) {
  exp::ScenarioSpec spec = campaign_base();
  spec.policy = sched::Policy::kSrrs;
  spec.fault = exp::FaultPlan::scheduler(0, 3);
  const exp::ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.diverted_blocks, 0u);
  // The mapping fault diverts blocks but corrupts no data: outputs stay
  // correct and matching (why the scheduler needs the periodic BIST).
  EXPECT_TRUE(r.verified) << r.label;
  EXPECT_TRUE(r.dcls_match) << r.label;
  EXPECT_EQ(r.outcome, Outcome::kMasked) << r.label;
}

TEST(FaultScenario, FaultFreeCampaignPassesAllPolicies) {
  const exp::ScenarioSet set =
      exp::ScenarioSet::of(campaign_base())
          .sweep_policies({sched::Policy::kDefault, sched::Policy::kHalf,
                           sched::Policy::kSrrs})
          .sweep_redundancy();
  ASSERT_EQ(set.size(), 15u);  // 3 policies x 5 redundancy modes
  const exp::CampaignResult campaign = exp::CampaignRunner().run(set);
  EXPECT_TRUE(campaign.all_passed());
  for (const exp::ScenarioResult& r : campaign.results) {
    EXPECT_TRUE(r.verified) << r.label;
    EXPECT_EQ(r.corruptions, 0u) << r.label;
  }
}

}  // namespace
}  // namespace higpu::fault
