// Checkpoint/restore subsystem tests.
//
// The load-bearing guarantee: a run resumed from a snapshot is bit-identical
// to a run that was never interrupted — results, cycle counts, statistics,
// the modelled timeline — under both simulation engines, for every workload,
// with or without an armed fault (including snapshots taken mid fault
// window). On top of that: rollback recovery beats re-execution on response
// time, snapshot hash diffing localizes fault divergence, campaign
// fast-forward returns bit-identical ScenarioResults (also where one
// rollback fork answers its DCLS twin from its first attempt), and the
// ScenarioSet sweep builders reject empty bases loudly. The copy-on-write
// store pages, the shared launch and block-record history images, the
// section hash, the decoder's length checks, the refusal by name of enum
// bytes no enumerator has, and the bytes of mid-run captures are pinned here
// too, so the sanitizer jobs that run this suite cover them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/wire.h"
#include "common/rng.h"
#include "exp/campaign.h"
#include "exp/units.h"
#include "fault/injector.h"
#include "sched/edf.h"
#include "sched/policies.h"
#include "tests/test_kernels.h"

namespace higpu {
namespace {

using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;
using exp::SnapshotIo;

ScenarioSpec make_spec(const std::string& workload, sim::SimEngine engine) {
  ScenarioSpec s;
  s.workload = workload;
  s.gpu.engine = engine;
  return s;
}

std::string diff_hint(const ScenarioResult& a, const ScenarioResult& b) {
  std::string out;
  auto f = [&](const char* name, u64 x, u64 y) {
    if (x != y)
      out += std::string(name) + " " + std::to_string(x) + " vs " +
             std::to_string(y) + "; ";
  };
  f("kernel_cycles", a.kernel_cycles, b.kernel_cycles);
  f("elapsed_ns", a.elapsed_ns, b.elapsed_ns);
  f("ff_cycles", a.ff_cycles, b.ff_cycles);
  f("attempts", a.attempts, b.attempts);
  f("comparisons", a.comparisons, b.comparisons);
  f("mismatches", a.mismatches, b.mismatches);
  f("corruptions", a.corruptions, b.corruptions);
  f("verified", a.verified, b.verified);
  f("instructions", a.stats.get("instructions"),
    b.stats.get("instructions"));
  f("stats==", a.stats == b.stats, true);
  return out.empty() ? "(labels/other fields differ)" : out;
}

/// Capture a snapshot at `target` during one run of `capture_spec`, fork
/// `fork_spec` from it, and require the fork to be bit-identical to a
/// from-scratch run of `fork_spec`. Also requires the capture run itself to
/// be unperturbed by the captures.
void expect_fork_identical(const ScenarioSpec& capture_spec,
                           const ScenarioSpec& fork_spec, Cycle target) {
  const ScenarioResult scratch_capture = exp::run_scenario(capture_spec);
  ASSERT_TRUE(scratch_capture.ok) << scratch_capture.error;
  const ScenarioResult scratch_fork = exp::run_scenario(fork_spec);
  ASSERT_TRUE(scratch_fork.ok) << scratch_fork.error;

  SnapshotIo base_io;
  base_io.capture_targets = {target};
  const ScenarioResult base =
      exp::run_scenario(capture_spec, 0, nullptr, nullptr, &base_io);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_TRUE(base.deterministic_fields_equal(scratch_capture))
      << "captures perturbed the capture run: " << diff_hint(base, scratch_capture);
  ASSERT_NE(base_io.captured[0], nullptr)
      << capture_spec.label() << ": no snapshot covering cycle " << target;
  EXPECT_LE(base_io.captured[0]->cycle, target);

  SnapshotIo fork_io;
  fork_io.resume = base_io.captured[0];
  fork_io.divergence_ref = base_io.final_state;
  const ScenarioResult fork =
      exp::run_scenario(fork_spec, 0, nullptr, nullptr, &fork_io);
  ASSERT_TRUE(fork.ok) << fork.error;
  EXPECT_TRUE(fork.deterministic_fields_equal(scratch_fork))
      << fork_spec.label() << " forked from cycle "
      << base_io.captured[0]->cycle << ": " << diff_hint(fork, scratch_fork);
}

// ---- Save -> restore -> run bit-identical, all workloads x both engines ---

class CkptAllWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, sim::SimEngine>> {
};

TEST_P(CkptAllWorkloads, SaveRestoreRunBitIdentical) {
  const auto& [workload, engine] = GetParam();
  ScenarioSpec spec = make_spec(workload, engine);
  // Aim mid-execution: halfway through the total simulated cycle span.
  const ScenarioResult probe = exp::run_scenario(spec);
  ASSERT_TRUE(probe.ok) << probe.error;
  const Cycle target = probe.stats.get("cycles") / 2;
  expect_fork_identical(spec, spec, target);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CkptAllWorkloads,
    ::testing::Combine(::testing::ValuesIn(workloads::all_names()),
                       ::testing::Values(sim::SimEngine::kEvent,
                                         sim::SimEngine::kDense)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);  // "b+tree" -> "b_tree"
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + (std::get<1>(info.param) == sim::SimEngine::kEvent
                         ? "_event"
                         : "_dense");
    });

// ---- Fuzz: restore at a random cycle mid fault window ---------------------

TEST(CkptFuzz, RestoreAtRandomCycleMidFaultWindow) {
  Rng rng(0xC0FFEEull);
  const std::vector<std::string> workloads = {"hotspot", "bfs", "srad"};
  for (const std::string& wl : workloads) {
    for (sim::SimEngine engine :
         {sim::SimEngine::kEvent, sim::SimEngine::kDense}) {
      ScenarioSpec clean = make_spec(wl, engine);
      const ScenarioResult probe = exp::run_scenario(clean);
      ASSERT_TRUE(probe.ok) << probe.error;
      const Cycle span = probe.stats.get("cycles");
      ASSERT_GT(span, 6000u);

      // A droop window inside the execution; three fuzzed capture points:
      // before, inside and right at the window.
      const Cycle start = 3000 + rng.next_below(span / 2);
      const Cycle width = 200 + rng.next_below(span / 4);
      ScenarioSpec faulted = clean;
      faulted.fault = FaultPlan::droop(start, width, 1 + rng.next_below(30));

      // Corruption can change control flow, so the faulted run's span is
      // its own; capture targets must fall inside it to be reachable.
      const ScenarioResult fprobe = exp::run_scenario(faulted);
      ASSERT_TRUE(fprobe.ok) << fprobe.error;
      const Cycle fspan = fprobe.stats.get("cycles");

      const Cycle targets[] = {rng.next_below(start), start,
                               start + rng.next_below(width)};
      for (Cycle t : targets) {
        if (t >= fspan) continue;  // window outlived the corrupted run
        SCOPED_TRACE(faulted.label() + " capture@" + std::to_string(t));
        // Capture during the faulted run itself (snapshots carry the armed
        // injector state, mid-window included) and fork the same fault.
        expect_fork_identical(faulted, faulted, t);
      }
    }
  }
}

// ---- Campaign fast-forward ------------------------------------------------

TEST(CkptCampaign, FastForwardBitIdenticalToFromScratch) {
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::droop(9000, 400, 3),
       FaultPlan::droop(15000, 400, 3), FaultPlan::transient_sm(0, 12000, 600, 7),
       FaultPlan::permanent_sm(1, 10000, 5)});

  exp::CampaignRunner::Config plain_cfg;
  plain_cfg.jobs = 1;
  const exp::CampaignResult plain = exp::CampaignRunner(plain_cfg).run(set);

  exp::CampaignRunner::Config ff_cfg;
  ff_cfg.jobs = 1;
  ff_cfg.snapshot_fast_forward = true;
  const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(set);

  ASSERT_EQ(plain.results.size(), ff.results.size());
  for (size_t i = 0; i < plain.results.size(); ++i) {
    ASSERT_TRUE(plain.results[i].ok) << plain.results[i].error;
    ASSERT_TRUE(ff.results[i].ok) << ff.results[i].error;
    EXPECT_TRUE(plain.results[i].deterministic_fields_equal(ff.results[i]))
        << plain.results[i].label << ": "
        << diff_hint(ff.results[i], plain.results[i]);
  }
}

TEST(CkptCampaign, FastForwardBitIdenticalWithRollbackRecovery) {
  // Fast-forwarded forks of rollback scenarios must record the same
  // pre-kernel checkpoint anchors a from-scratch run records (at sync
  // entry, not at the teleported resume point), or the recovery walk — and
  // with it response_ns/attempts — would differ.
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  base.redundancy = core::RedundancySpec::dcls_rollback(2);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::droop(9000, 1500, 3),
       FaultPlan::droop(15000, 1500, 3)});

  exp::CampaignRunner::Config plain_cfg;
  plain_cfg.jobs = 1;
  const exp::CampaignResult plain = exp::CampaignRunner(plain_cfg).run(set);
  exp::CampaignRunner::Config ff_cfg;
  ff_cfg.jobs = 1;
  ff_cfg.snapshot_fast_forward = true;
  const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(set);

  bool any_recovered = false;
  for (size_t i = 0; i < plain.results.size(); ++i) {
    ASSERT_TRUE(plain.results[i].ok) << plain.results[i].error;
    EXPECT_TRUE(plain.results[i].deterministic_fields_equal(ff.results[i]))
        << plain.results[i].label << ": "
        << diff_hint(ff.results[i], plain.results[i]);
    any_recovered = any_recovered || plain.results[i].recovered;
  }
  EXPECT_TRUE(any_recovered);  // the sweep must actually exercise recovery
}

TEST(CkptCampaign, FastForwardDeterministicAcrossJobs) {
  // Several fault-sweep groups (one per workload) so parallel workers each
  // own whole groups; results must not depend on the thread count.
  ScenarioSet set;
  for (const char* wl : {"hotspot", "nn", "pathfinder"})
    set.append(ScenarioSet::of(make_spec(wl, sim::SimEngine::kEvent))
                   .sweep_faults({FaultPlan::none(),
                                  FaultPlan::droop(8000, 400, 3),
                                  FaultPlan::droop(12000, 400, 3)}));

  exp::CampaignRunner::Config one;
  one.jobs = 1;
  one.snapshot_fast_forward = true;
  exp::CampaignRunner::Config four;
  four.jobs = 4;
  four.snapshot_fast_forward = true;
  const exp::CampaignResult a = exp::CampaignRunner(one).run(set);
  const exp::CampaignResult b = exp::CampaignRunner(four).run(set);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i)
    EXPECT_TRUE(a.results[i].deterministic_fields_equal(b.results[i]))
        << a.results[i].label << ": "
        << diff_hint(b.results[i], a.results[i]);
}

TEST(CkptCampaign, FastForwardReportsDivergenceForSdcOrDetectedFaults) {
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::permanent_sm(0, 5000, 7),
       FaultPlan::permanent_sm(0, 5000, 8)});

  exp::CampaignRunner::Config cfg;
  cfg.jobs = 1;
  cfg.snapshot_fast_forward = true;
  const exp::CampaignResult res = exp::CampaignRunner(cfg).run(set);
  for (const ScenarioResult& r : res.results) {
    ASSERT_TRUE(r.ok) << r.error;
    if (!r.fault_active) continue;
    // A permanent SM fault that corrupted datapath results must leave an
    // architecturally divergent trace vs the clean run.
    if (r.corruptions > 0) {
      EXPECT_FALSE(r.divergence.empty()) << r.label;
    }
  }
}

// ---- Fast-forward: windows that open after the clean run drains ----------

/// The clean run's final GPU clock E for `spec`, as its group base sees it.
Cycle clean_end_cycle(const ScenarioSpec& spec) {
  SnapshotIo io;
  const ScenarioResult r = exp::run_scenario(spec, 0, nullptr, nullptr, &io);
  EXPECT_TRUE(r.ok) << r.error;
  return io.final_state != nullptr ? io.final_state->cycle : 0;
}

/// One plan of every fault kind opening at `start`.
std::vector<FaultPlan> every_kind_at(Cycle start) {
  return {FaultPlan::droop(start, 400, 3),
          FaultPlan::transient_sm(1, start, 400, 5),
          FaultPlan::permanent_sm(0, start, 7),
          FaultPlan::scheduler(start, 1)};
}

/// What a clean run shows the quiet-window rule, recorded by a hook of the
/// test's own rather than by exp::run_group_base: the cycles at which each
/// SM produced a datapath result with live lanes, the cycles the event loop
/// simulated, the kernels' execution spans and the final clock.
struct CleanTrace final : sim::IFaultHook {
  std::vector<std::vector<Cycle>> results;  // per SM, ascending, distinct
  mutable std::vector<Cycle> visited;       // ascending, the final clock too
  std::vector<std::pair<Cycle, Cycle>> kernels;  // [first dispatch, done]
  Cycle end = 0;

  u32 corrupt_lanes(u32 sm, Cycle cycle, u32 lanes) override {
    if (lanes == 0) return 0;
    if (results.size() <= sm) results.resize(sm + 1);
    if (results[sm].empty() || results[sm].back() != cycle)
      results[sm].push_back(cycle);
    return 0;
  }
  u32 corrupt_block_mapping(u32 sm, u32, Cycle) override { return sm; }
  Cycle next_trigger_cycle(Cycle now) const override {
    visited.push_back(now);  // asked once per event-loop iteration
    return kNeverCycle;
  }

  /// Result cycles on the SMs a fault of `kind` corrupts, ascending.
  std::vector<Cycle> results_on(FaultPlan::Kind kind) const {
    std::vector<Cycle> out;
    for (u32 sm = 0; sm < results.size(); ++sm)
      if (kind == FaultPlan::Kind::kDroop ||
          (kind == FaultPlan::Kind::kTransientSm && sm == 1) ||
          (kind == FaultPlan::Kind::kPermanentSm && sm == 0))
        out.insert(out.end(), results[sm].begin(), results[sm].end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Whether the faulted run of `f` departs from the clean run: a result on
  /// its SMs inside its window, or, for a scheduler fault, a window the
  /// clean run reaches.
  bool fires(const FaultPlan& f) const {
    if (f.kind == FaultPlan::Kind::kScheduler) return f.start <= end;
    const Cycle stop = f.kind == FaultPlan::Kind::kPermanentSm
                           ? kNeverCycle
                           : f.start + f.duration;
    const std::vector<Cycle> r = results_on(f.kind);
    const auto it = std::lower_bound(r.begin(), r.end(), f.start);
    return it != r.end() && *it < stop;
  }
};

/// Trace the clean run of `spec` (its fault stripped) under the event
/// engine.
CleanTrace trace_clean(ScenarioSpec spec) {
  spec.fault = FaultPlan::none();
  spec.gpu.engine = sim::SimEngine::kEvent;
  CleanTrace t;
  const exp::ScenarioProbe install = [&t](runtime::Device& dev,
                                          workloads::Workload&,
                                          core::ExecSession&) {
    dev.gpu().set_fault_hook(&t);
  };
  const exp::ScenarioProbe harvest = [&t](runtime::Device& dev,
                                          workloads::Workload&,
                                          core::ExecSession&) {
    for (const sim::KernelState* ks : dev.gpu().kernel_states())
      t.kernels.push_back({ks->first_dispatch_cycle, ks->done_cycle});
    t.end = dev.gpu().now();
  };
  const ScenarioResult r = exp::run_scenario(spec, 0, harvest, install);
  EXPECT_TRUE(r.ok) << r.error;
  t.visited.push_back(t.end);
  std::sort(t.kernels.begin(), t.kernels.end());
  return t;
}

TEST(CkptCampaign, LateWindowsMatchFromScratchInEveryShape) {
  for (sim::SimEngine engine :
       {sim::SimEngine::kEvent, sim::SimEngine::kDense}) {
    for (const core::RedundancySpec& red :
         {core::RedundancySpec{}, core::RedundancySpec::dcls_rollback(2)}) {
      ScenarioSpec base = make_spec("hotspot", engine);
      base.redundancy = red;
      const Cycle end = clean_end_cycle(base);
      ASSERT_GT(end, 1u);
      std::vector<FaultPlan> plans;
      for (Cycle start : {end - 1, end, end + 1, end + 5000})
        for (const FaultPlan& p : every_kind_at(start)) plans.push_back(p);
      const ScenarioSet faults_only = ScenarioSet::of(base).sweep_faults(plans);
      plans.insert(plans.begin(), FaultPlan::none());
      const ScenarioSet with_clean = ScenarioSet::of(base).sweep_faults(plans);

      for (const ScenarioSet* set : {&with_clean, &faults_only}) {
        exp::CampaignRunner::Config plain_cfg;
        plain_cfg.jobs = 1;
        exp::CampaignRunner::Config ff_cfg = plain_cfg;
        ff_cfg.snapshot_fast_forward = true;
        const exp::CampaignResult plain =
            exp::CampaignRunner(plain_cfg).run(*set);
        const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(*set);
        ASSERT_EQ(plain.results.size(), ff.results.size());
        for (size_t i = 0; i < plain.results.size(); ++i) {
          ASSERT_TRUE(plain.results[i].ok) << plain.results[i].error;
          ASSERT_TRUE(ff.results[i].ok) << ff.results[i].error;
          EXPECT_TRUE(plain.results[i].deterministic_fields_equal(ff.results[i]))
              << plain.results[i].label << " (clean end " << end << "): "
              << diff_hint(ff.results[i], plain.results[i]);
        }
      }
    }
  }
}

TEST(CkptCampaign, OnlyWindowsPastTheCleanClockSkipSimulation) {
  const ScenarioSpec clean = make_spec("hotspot", sim::SimEngine::kEvent);
  const Cycle end = clean_end_cycle(clean);
  std::vector<FaultPlan> plans = {FaultPlan::none()};
  for (Cycle start : {end - 1, end, end + 1, end + 5000})
    for (const FaultPlan& p : every_kind_at(start)) plans.push_back(p);
  const ScenarioSet set = ScenarioSet::of(clean).sweep_faults(plans);
  std::vector<size_t> members(set.size());
  for (size_t i = 0; i < members.size(); ++i) members[i] = i;
  const exp::GroupBase base = exp::run_group_base(set, members);
  ASSERT_TRUE(base.ok()) << base.result.error;
  EXPECT_EQ(end, base.final_state->cycle);
  const CleanTrace trace = trace_clean(clean);
  ASSERT_EQ(end, trace.end);

  for (size_t i = 1; i < set.size(); ++i) {
    SCOPED_TRACE(set[i].label());
    u32 pre_runs = 0;
    const exp::ScenarioProbe count = [&pre_runs](runtime::Device&,
                                                 workloads::Workload&,
                                                 core::ExecSession&) {
      ++pre_runs;
    };
    const ScenarioResult fork = exp::run_fork(set, i, base, nullptr, count);
    ASSERT_TRUE(fork.ok) << fork.error;
    // Simulated iff a clean datapath result lies in the window on its SMs
    // (a scheduler fault: iff the clean run reaches its window).
    EXPECT_EQ(trace.fires(set[i].fault) ? 1u : 0u, pre_runs);

    // The answer is what a simulated fork diffed against the clean final
    // state reports, divergence included.
    SnapshotIo io;
    io.divergence_ref = base.final_state;
    const ScenarioResult simulated = exp::run_scenario(
        set[i], static_cast<u32>(i), nullptr, nullptr, &io);
    ASSERT_TRUE(simulated.ok) << simulated.error;
    EXPECT_TRUE(fork.deterministic_fields_equal(simulated))
        << diff_hint(fork, simulated);
    EXPECT_EQ(simulated.divergence, fork.divergence);
  }
}

TEST(CkptCampaign, InvalidLatePlanStillFailsWithItsError) {
  const ScenarioSpec clean = make_spec("hotspot", sim::SimEngine::kEvent);
  const Cycle end = clean_end_cycle(clean);
  // bit 40 is out of range; the window opens long after the clean run.
  const ScenarioSet set = ScenarioSet::of(clean).sweep_faults(
      {FaultPlan::none(), FaultPlan::droop(end + 5000, 400, 40),
       FaultPlan::droop(end + 5000, 400, 3)});
  std::vector<ScenarioResult> results(set.size());
  exp::run_unit(set, {0, 1, 2},
                [&](ScenarioResult r) { results[r.index] = std::move(r); });

  const ScenarioResult scratch = exp::run_scenario(set[1], 1);
  ASSERT_FALSE(scratch.ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(scratch.error, results[1].error);
  EXPECT_NE(std::string::npos, results[1].error.find("bit")) << results[1].error;
  EXPECT_TRUE(results[2].ok) << results[2].error;
}

// ---- Fast-forward: quiet windows -------------------------------------------

/// The fault of `kind` on the window [start, stop); a permanent or scheduler
/// fault never closes, so it keeps only `start`.
FaultPlan fault_on(FaultPlan::Kind kind, Cycle start, Cycle stop) {
  switch (kind) {
    case FaultPlan::Kind::kDroop: return FaultPlan::droop(start, stop - start, 3);
    case FaultPlan::Kind::kTransientSm:
      return FaultPlan::transient_sm(1, start, stop - start, 5);
    case FaultPlan::Kind::kPermanentSm: return FaultPlan::permanent_sm(0, start, 7);
    default: return FaultPlan::scheduler(start, 1);
  }
}

/// Windows of every shape the quiet-window rule must get exactly right,
/// placed on the clean run `t` for a fault of `kind`: wholly inside a
/// fast-forward jump; from one simulated cycle to the next; one boundary
/// jumped and one simulated; across the host phase between two kernels;
/// ending on, just past, starting on and just after a datapath result.
/// For a single-SM fault also one holding only another SM's result.
std::vector<FaultPlan> quiet_shapes(const CleanTrace& t, FaultPlan::Kind kind) {
  std::vector<FaultPlan> plans;
  const auto add = [&](Cycle start, Cycle stop) {
    plans.push_back(fault_on(kind, start, stop));
  };

  // The middle jump of three or more cycles: [a+1, b-1) is jumped over.
  std::vector<std::pair<Cycle, Cycle>> jumps;
  for (size_t i = 1; i < t.visited.size(); ++i)
    if (t.visited[i] >= t.visited[i - 1] + 3)
      jumps.push_back({t.visited[i - 1], t.visited[i]});
  EXPECT_FALSE(jumps.empty());
  if (!jumps.empty()) {
    const auto [a, b] = jumps[jumps.size() / 2];
    add(a + 1, b - 1);
    add(a, b);
    add(a + 1, b);
    add(a, b - 1);
  }

  // Across the first idle stretch between kernels, from just past the last
  // result before it to the first result after it, and one cycle wider. A
  // scheduler fault corrupts no result; its windows sit on any SM's.
  const std::vector<Cycle> r = t.results_on(
      kind == FaultPlan::Kind::kScheduler ? FaultPlan::Kind::kDroop : kind);
  Cycle busy_until = 0;
  bool spanned = false;
  for (const auto& [first, done] : t.kernels) {
    if (busy_until != 0 && first > busy_until && !spanned) {
      const auto next = std::lower_bound(r.begin(), r.end(), first);
      if (next != r.end() && next != r.begin() && *std::prev(next) < busy_until) {
        add(*std::prev(next) + 1, *next);
        add(*std::prev(next), *next + 1);
        spanned = true;
      }
    }
    busy_until = std::max(busy_until, done);
  }
  EXPECT_TRUE(spanned);

  // Around a result with a gap of two or more cycles on either side.
  bool around = false;
  for (size_t i = r.size() / 2; i + 1 < r.size() && !around; ++i) {
    if (r[i] < r[i - 1] + 2 || r[i + 1] < r[i] + 2) continue;
    add(r[i - 1] + 1, r[i]);      // ends one cycle before it
    add(r[i - 1] + 1, r[i] + 1);  // ends on it
    add(r[i], r[i + 1]);          // starts on it
    add(r[i] + 1, r[i + 1]);      // starts one cycle after it
    around = true;
  }
  EXPECT_TRUE(around);

  if (kind == FaultPlan::Kind::kTransientSm ||
      kind == FaultPlan::Kind::kPermanentSm) {
    // Another SM's result on a cycle this SM produced none; a permanent
    // fault needs it past this SM's last result.
    const std::vector<Cycle> any = t.results_on(FaultPlan::Kind::kDroop);
    const Cycle after = kind == FaultPlan::Kind::kPermanentSm && !r.empty()
                            ? r.back() + 1
                            : 0;
    for (Cycle c : any)
      if (c >= after && !std::binary_search(r.begin(), r.end(), c)) {
        add(c, c + 1);
        break;
      }
  }
  return plans;
}

TEST(CkptCampaign, QuietWindowsMatchFromScratchInEveryShape) {
  for (const core::RedundancySpec& red :
       {core::RedundancySpec::dcls(), core::RedundancySpec::dcls_rollback(2)}) {
    ScenarioSpec clean = make_spec("hotspot", sim::SimEngine::kEvent);
    clean.redundancy = red;
    const CleanTrace trace = trace_clean(clean);
    std::vector<FaultPlan> plans = {FaultPlan::none()};
    for (FaultPlan::Kind kind :
         {FaultPlan::Kind::kDroop, FaultPlan::Kind::kTransientSm,
          FaultPlan::Kind::kPermanentSm, FaultPlan::Kind::kScheduler})
      for (const FaultPlan& p : quiet_shapes(trace, kind)) plans.push_back(p);

    for (sim::SimEngine engine :
         {sim::SimEngine::kEvent, sim::SimEngine::kDense}) {
      ScenarioSpec base_spec = clean;
      base_spec.gpu.engine = engine;
      const ScenarioSet set = ScenarioSet::of(base_spec).sweep_faults(plans);
      std::vector<size_t> members(set.size());
      for (size_t i = 0; i < members.size(); ++i) members[i] = i;
      const exp::GroupBase base = exp::run_group_base(set, members);
      ASSERT_TRUE(base.ok()) << base.result.error;
      // The base keeps a snapshot for exactly the starts of the members
      // that fork; one only quiet members asked for is dropped.
      std::set<Cycle> forked;
      for (size_t i = 1; i < set.size(); ++i)
        if (std::none_of(base.quiet.begin(), base.quiet.end(),
                         [i](const exp::GroupBase::Quiet& q) {
                           return q.index == i;
                         }))
          forked.insert(set[i].fault.start);
      ASSERT_EQ(base.targets.size(), base.snapshots.size());
      size_t kept = 0;
      for (size_t k = 0; k < base.targets.size(); ++k) {
        EXPECT_EQ(forked.count(base.targets[k]) == 1,
                  base.snapshots[k] != nullptr)
            << "target " << base.targets[k];
        kept += base.snapshots[k] != nullptr;
      }
      EXPECT_GT(kept, 0u);
      EXPECT_LT(kept, base.targets.size());
      // The event loop jumps over none, one and both boundaries of some
      // quiet window; the dense loop jumps over nothing.
      std::vector<Cycle> jumped;
      for (const exp::GroupBase::Quiet& q : base.quiet)
        jumped.push_back(q.jumped);
      std::sort(jumped.begin(), jumped.end());
      jumped.erase(std::unique(jumped.begin(), jumped.end()), jumped.end());
      const std::vector<Cycle> expected =
          engine == sim::SimEngine::kEvent ? std::vector<Cycle>{0, 1, 2}
                                           : std::vector<Cycle>{0};
      EXPECT_EQ(expected, jumped);

      for (size_t i = 1; i < set.size(); ++i) {
        SCOPED_TRACE(set[i].label());
        u32 pre_runs = 0;
        const exp::ScenarioProbe count = [&pre_runs](runtime::Device&,
                                                     workloads::Workload&,
                                                     core::ExecSession&) {
          ++pre_runs;
        };
        const ScenarioResult fork = exp::run_fork(set, i, base, nullptr, count);
        const ScenarioResult scratch =
            exp::run_scenario(set[i], static_cast<u32>(i));
        ASSERT_TRUE(fork.ok) << fork.error;
        ASSERT_TRUE(scratch.ok) << scratch.error;
        EXPECT_TRUE(fork.deterministic_fields_equal(scratch))
            << diff_hint(fork, scratch);
        EXPECT_EQ(trace.fires(set[i].fault) ? 1u : 0u, pre_runs);
      }
    }
  }
}

// ---- Fast-forward: rollback forks replay the clean round -------------------

/// The bench fault campaign's shape at test scale: the Fig. 4 workloads
/// under DCLS with rollback, each without a fault, under three 200-cycle
/// droops and under one 2000-cycle transient on SM 1.
ScenarioSet rollback_campaign() {
  ScenarioSpec proto;
  proto.redundancy = core::RedundancySpec::dcls_rollback(2);
  return ScenarioSet::for_workloads(workloads::fig4_names(), proto)
      .sweep_faults({FaultPlan::none(), FaultPlan::droop(8599, 200, 10),
                     FaultPlan::droop(12005, 200, 5),
                     FaultPlan::droop(21496, 200, 8),
                     FaultPlan::transient_sm(1, 14097, 2000, 3)});
}

/// Runs every unit of `set` as the fast-forward runner plans them and
/// returns each scenario's result with its Device::rounds_replayed() (0 for
/// a run no probe saw: the base run and the quiet forks).
std::vector<std::pair<ScenarioResult, u64>> run_units_counting_replays(
    const ScenarioSet& set) {
  std::vector<std::pair<ScenarioResult, u64>> out(set.size());
  u64 replayed = 0;
  const exp::ScenarioProbe probe = [&replayed](runtime::Device& dev,
                                               workloads::Workload&,
                                               core::ExecSession&) {
    replayed = dev.rounds_replayed();
  };
  for (const exp::WorkUnit& u : exp::plan_units(set, /*group_faults=*/true))
    exp::run_unit(
        set, u.members,
        [&](ScenarioResult r) {
          const size_t i = r.index;
          out[i] = {std::move(r), replayed};
          replayed = 0;
        },
        probe);
  return out;
}

TEST(CkptCampaign, RollbackReplayBitIdenticalOnEveryFig4Workload) {
  const ScenarioSet set = rollback_campaign();
  std::vector<ScenarioResult> scratch;
  for (size_t i = 0; i < set.size(); ++i) {
    u64 replayed = ~u64{0};
    const exp::ScenarioProbe probe = [&replayed](runtime::Device& dev,
                                                 workloads::Workload&,
                                                 core::ExecSession&) {
      replayed = dev.rounds_replayed();
    };
    scratch.push_back(exp::run_scenario(set[i], static_cast<u32>(i), probe));
    ASSERT_TRUE(scratch.back().ok) << scratch.back().error;
    EXPECT_EQ(0u, replayed) << set[i].label();  // nothing was offered
  }

  for (u32 jobs : {1u, 2u}) {
    exp::CampaignRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.snapshot_fast_forward = true;
    const exp::CampaignResult ff = exp::CampaignRunner(cfg).run(set);
    ASSERT_EQ(set.size(), ff.results.size());
    for (size_t i = 0; i < set.size(); ++i)
      EXPECT_TRUE(scratch[i].deterministic_fields_equal(ff.results[i]))
          << "jobs " << jobs << ", " << set[i].label() << ": "
          << diff_hint(ff.results[i], scratch[i]);
  }

  // The replays themselves: only a fork that rolled back replays, and some
  // do, so the equalities above cover replayed rounds.
  u32 replaying_forks = 0;
  const auto counted = run_units_counting_replays(set);
  for (size_t i = 0; i < set.size(); ++i) {
    const auto& [r, replayed] = counted[i];
    EXPECT_TRUE(scratch[i].deterministic_fields_equal(r))
        << set[i].label() << ": " << diff_hint(r, scratch[i]);
    if (replayed == 0) continue;
    ++replaying_forks;
    EXPECT_TRUE(set[i].fault.active()) << set[i].label();
    EXPECT_GE(r.attempts, 2u) << set[i].label();
  }
  EXPECT_GT(replaying_forks, 0u);
}

// ---- Fast-forward: recovery siblings share one run --------------------------

/// Whether `a` is `b` under another recovery strategy: the same plan, the
/// same everything else.
bool recovery_twins(const ScenarioSpec& a, const ScenarioSpec& b) {
  ScenarioSpec o = b;
  o.redundancy.recovery = a.redundancy.recovery;
  return a == o && a.redundancy.recovery != b.redundancy.recovery;
}

/// From-scratch results of every scenario of `set`.
std::vector<ScenarioResult> run_from_scratch(const ScenarioSet& set) {
  std::vector<ScenarioResult> out;
  for (size_t i = 0; i < set.size(); ++i) {
    out.push_back(exp::run_scenario(set[i], static_cast<u32>(i)));
    EXPECT_TRUE(out.back().ok) << set[i].label() << ": " << out.back().error;
  }
  return out;
}

/// Runs every unit of `set` as the fast-forward runner plans them and
/// returns each scenario's result with whether a device simulated it (the
/// probe fired for it: not for the base run, a member answered from the
/// base result, or a sibling answered from its twin's first attempt).
std::vector<std::pair<ScenarioResult, bool>> run_units_noting_simulated(
    const ScenarioSet& set) {
  std::vector<std::pair<ScenarioResult, bool>> out(set.size());
  bool simulated = false;
  const exp::ScenarioProbe probe = [&simulated](runtime::Device&,
                                                workloads::Workload&,
                                                core::ExecSession&) {
    simulated = true;
  };
  for (const exp::WorkUnit& u : exp::plan_units(set, /*group_faults=*/true))
    exp::run_unit(
        set, u.members,
        [&](ScenarioResult r) {
          const size_t i = r.index;
          out[i] = {std::move(r), simulated};
          simulated = false;
        },
        probe);
  return out;
}

/// What expect_fast_forward_matches saw: per scenario whether a device
/// simulated it, and how many kNone fault members a simulated recovering
/// twin answered.
struct SiblingRuns {
  std::vector<bool> simulated;
  u32 derived = 0;
};

/// Fast-forward at jobs 1 and 2, and unit by unit with a probe, each equal
/// to `scratch`. A kNone fault member whose recovering twin was simulated
/// must not be simulated itself.
SiblingRuns expect_fast_forward_matches(
    const ScenarioSet& set, const std::vector<ScenarioResult>& scratch) {
  for (u32 jobs : {1u, 2u}) {
    exp::CampaignRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.snapshot_fast_forward = true;
    const exp::CampaignResult ff = exp::CampaignRunner(cfg).run(set);
    EXPECT_EQ(set.size(), ff.results.size());
    for (size_t i = 0; i < set.size() && i < ff.results.size(); ++i)
      EXPECT_TRUE(scratch[i].deterministic_fields_equal(ff.results[i]))
          << "jobs " << jobs << ", " << set[i].label() << ": "
          << diff_hint(ff.results[i], scratch[i]);
  }

  const auto noted = run_units_noting_simulated(set);
  SiblingRuns runs;
  for (size_t j = 0; j < set.size(); ++j) {
    const auto& [r, simulated] = noted[j];
    runs.simulated.push_back(simulated);
    EXPECT_TRUE(scratch[j].deterministic_fields_equal(r))
        << set[j].label() << ": " << diff_hint(r, scratch[j]);
    if (!set[j].fault.active() ||
        set[j].redundancy.recovery != core::RedundancySpec::Recovery::kNone)
      continue;
    // A kNone fault member whose recovering twin was simulated shares that
    // run: it is never simulated itself.
    for (size_t i = 0; i < set.size(); ++i) {
      if (!recovery_twins(set[i], set[j]) || !noted[i].second) continue;
      EXPECT_FALSE(simulated) << set[j].label() << " was simulated beside "
                              << set[i].label();
      runs.derived += !simulated;
      break;
    }
  }
  return runs;
}

/// The bench fault campaign's shape at test scale: the Fig. 4 workloads
/// under DCLS and under DCLS with rollback, each without a fault, under
/// three 200-cycle droops and under one 2000-cycle transient on SM 1.
ScenarioSet recovery_sibling_campaign() {
  ScenarioSpec proto;
  return ScenarioSet::for_workloads(workloads::fig4_names(), proto)
      .sweep_redundancy({core::RedundancySpec::dcls(),
                         core::RedundancySpec::dcls_rollback(2)})
      .sweep_faults({FaultPlan::none(), FaultPlan::droop(8599, 200, 10),
                     FaultPlan::droop(12005, 200, 5),
                     FaultPlan::droop(21496, 200, 8),
                     FaultPlan::transient_sm(1, 14097, 2000, 3)});
}

TEST(CkptCampaign, RecoverySiblingsShareOneRunOnEveryFig4Workload) {
  const ScenarioSet set = recovery_sibling_campaign();
  // One unit per workload: both recovery strategies share its base run.
  const std::vector<exp::WorkUnit> units = exp::plan_units(set, true);
  EXPECT_EQ(workloads::fig4_names().size(), units.size());
  for (const exp::WorkUnit& u : units) EXPECT_EQ(10u, u.members.size());

  const SiblingRuns runs =
      expect_fast_forward_matches(set, run_from_scratch(set));
  // Not vacuous: the forks that detect their fault carry a DCLS sibling.
  EXPECT_GT(runs.derived, 0u);
}

TEST(CkptCampaign, RecoverySiblingEdgeUnitsMatchFromScratch) {
  using Recovery = core::RedundancySpec::Recovery;
  ScenarioSpec hotspot;
  hotspot.workload = "hotspot";
  const FaultPlan droop = FaultPlan::droop(12005, 200, 5);
  const FaultPlan transient = FaultPlan::transient_sm(1, 14097, 2000, 3);
  const auto with = [](ScenarioSpec s, const core::RedundancySpec& red,
                       const FaultPlan& f) {
    s.redundancy = red;
    s.fault = f;
    return s;
  };
  core::RedundancySpec degrade;
  degrade.recovery = Recovery::kDegrade;
  const core::RedundancySpec dcls = core::RedundancySpec::dcls();
  const core::RedundancySpec rollback = core::RedundancySpec::dcls_rollback(2);

  struct Edge {
    const char* name;
    ScenarioSet set;
    size_t must_simulate = 0;  // a member no other run answers (0: none)
  };
  std::vector<Edge> edges;
  {
    // A detected kNone fault no recovering member shares forks on its own,
    // from the snapshot of a base that ran under rollback.
    ScenarioSet set;
    set.add(with(hotspot, dcls, FaultPlan::none()))
        .add(with(hotspot, dcls, droop))
        .add(with(hotspot, rollback, FaultPlan::none()))
        .add(with(hotspot, rollback, FaultPlan::droop(12005, 200, 6)))
        .add(with(hotspot, rollback, transient));
    edges.push_back({"kNone plan without a rollback twin", std::move(set), 1});
  }
  edges.push_back(
      {"retry and degrade members in the group",
       ScenarioSet::of(hotspot)
           .sweep_redundancy({dcls, core::RedundancySpec::dcls_retry(2),
                              rollback, degrade})
           .sweep_faults({FaultPlan::none(), droop, transient})});
  edges.push_back({"no fault-free member",
                   ScenarioSet::of(hotspot)
                       .sweep_redundancy({dcls, rollback})
                       .sweep_faults({droop, transient})});
  {
    ScenarioSpec bfs = hotspot;
    bfs.workload = "bfs";
    edges.push_back({"bfs", ScenarioSet::of(bfs)
                                .sweep_redundancy({dcls, rollback})
                                .sweep_faults({FaultPlan::none(), droop,
                                               FaultPlan::droop(2000, 200, 3),
                                               transient})});
  }

  for (const Edge& e : edges) {
    SCOPED_TRACE(e.name);
    ASSERT_EQ(1u, exp::plan_units(e.set, true).size());
    const SiblingRuns runs =
        expect_fast_forward_matches(e.set, run_from_scratch(e.set));
    if (e.must_simulate != 0)
      EXPECT_TRUE(runs.simulated[e.must_simulate])
          << e.set[e.must_simulate].label();
  }
}

// ---- Round replay: refusals -------------------------------------------------
//
// Each case offers a rollback fork the clean base's round where replaying
// it would be wrong. The fork must simulate, and its result must equal the
// one it gets with replay unavailable.

/// `wl` under DCLS with rollback, without a fault and under `plan`, with
/// the group's clean base run (its kept round included).
struct ReplayGroup {
  ScenarioSet set;
  exp::GroupBase base;
};

ReplayGroup replay_group(const std::string& wl, const FaultPlan& plan) {
  ScenarioSpec spec = make_spec(wl, sim::SimEngine::kEvent);
  spec.redundancy = core::RedundancySpec::dcls_rollback(2);
  ReplayGroup g;
  g.set = ScenarioSet::of(spec).sweep_faults({FaultPlan::none(), plan});
  g.base = exp::run_group_base(g.set, {0, 1});
  EXPECT_TRUE(g.base.ok()) << g.base.result.error;
  EXPECT_NE(g.base.round.exit, nullptr);
  return g;
}

/// The faulted member of `g`, forked with the base's round offered and with
/// replay unavailable, and the rounds the first of them replayed.
struct ForkPair {
  ScenarioResult offered;
  ScenarioResult unavailable;
  u64 replayed = 0;
};

ForkPair fork_with_and_without_replay(
    const ReplayGroup& g, const exp::ScenarioProbe& pre_run = nullptr) {
  ForkPair p;
  const exp::ScenarioProbe probe = [&p](runtime::Device& dev,
                                        workloads::Workload&,
                                        core::ExecSession&) {
    p.replayed = dev.rounds_replayed();
  };
  p.offered = exp::run_fork(g.set, 1, g.base, probe, pre_run);
  exp::GroupBase no_round = g.base;
  no_round.round = {};
  p.unavailable = exp::run_fork(g.set, 1, no_round, nullptr, pre_run);
  EXPECT_TRUE(p.offered.ok) << p.offered.error;
  EXPECT_TRUE(p.unavailable.ok) << p.unavailable.error;
  EXPECT_GE(p.offered.attempts, 2u) << "the fork never rolled back";
  EXPECT_TRUE(p.offered.deterministic_fields_equal(p.unavailable))
      << diff_hint(p.offered, p.unavailable);
  return p;
}

TEST(CkptReplay, ReplaysOnlyAnEntryEqualToTheCleanOne) {
  const ReplayGroup g = replay_group("hotspot", FaultPlan::droop(12005, 200, 5));
  // Near miss: the rollback lands on the clean entry and the round replays.
  EXPECT_EQ(1u, fork_with_and_without_replay(g).replayed);

  // The same round recorded with one store byte flipped is refused.
  ReplayGroup moved = g;
  auto entry = std::make_shared<ckpt::Snapshot>(*g.base.round.entry);
  ASSERT_FALSE(entry->store_pages.empty());
  ckpt::StorePage& page = entry->store_pages[entry->store_pages.size() / 2];
  std::vector<u8> bytes = page.image->bytes;
  bytes[100] ^= 0x10;
  page.image = ckpt::make_image(std::move(bytes));
  EXPECT_EQ(0u, ckpt::first_divergence(*entry, *g.base.round.entry,
                                       {"host", "fault"})
                    .rfind("store @", 0));
  moved.base.round.entry = std::move(entry);
  EXPECT_EQ(0u, fork_with_and_without_replay(moved).replayed);
}

TEST(CkptReplay, RefusesTheSyncThatResumed) {
  // A resume restore replaces the state the pre-kernel anchor recorded: a
  // clean run resumed from a snapshot the droop already corrupted must
  // carry on from the corruption, although its anchor equals the clean
  // entry and it has no fault hook.
  const ReplayGroup g = replay_group("hotspot", FaultPlan::droop(12005, 200, 5));
  // Captured inside the window, after its first corruptions, by a run
  // that does not roll back (a rollback would capture it again, clean).
  ScenarioSpec droop_spec = g.set[1];
  droop_spec.redundancy = core::RedundancySpec::dcls();
  SnapshotIo corrupted;
  corrupted.capture_targets = {12050};
  const ScenarioResult droop =
      exp::run_scenario(droop_spec, 1, nullptr, nullptr, &corrupted);
  ASSERT_TRUE(droop.ok) << droop.error;
  ASSERT_NE(corrupted.captured[0], nullptr);

  const auto resumed = [&](bool offered, u64* replayed) {
    SnapshotIo io;
    io.resume = corrupted.captured[0];
    if (offered) io.replay = g.base.round;
    const exp::ScenarioProbe probe = [replayed](runtime::Device& dev,
                                                workloads::Workload&,
                                                core::ExecSession&) {
      *replayed = dev.rounds_replayed();
    };
    return exp::run_scenario(g.set[0], 0, probe, nullptr, &io);
  };
  u64 replayed = 0;
  const ScenarioResult offered = resumed(true, &replayed);
  const ScenarioResult unavailable = resumed(false, &replayed);
  ASSERT_TRUE(offered.ok) << offered.error;
  // The corruption is detected and rolled back; only then is the round,
  // now from the clean entry, replayed.
  EXPECT_GE(offered.attempts, 2u);
  EXPECT_TRUE(offered.deterministic_fields_equal(unavailable))
      << diff_hint(offered, unavailable);
}

TEST(CkptReplay, RefusesWhileAPermanentFaultStaysArmed) {
  const ReplayGroup g =
      replay_group("hotspot", FaultPlan::permanent_sm(0, 12005, 7));
  const ForkPair p = fork_with_and_without_replay(g);
  EXPECT_EQ(0u, p.replayed);
  EXPECT_FALSE(p.offered.recovered);
}

TEST(CkptReplay, RefusesBfsWhoseRollbackReenqueuesLaunches) {
  // bfs syncs once per level; its rollback walks back past the last level
  // and re-enqueues the later launches, so no re-executed round starts
  // where the clean run's last one did.
  const ReplayGroup g =
      replay_group("bfs", FaultPlan::transient_sm(1, 14097, 2000, 3));
  EXPECT_EQ(0u, fork_with_and_without_replay(g).replayed);
}

TEST(CkptReplay, RefusesWithATraceSinkAttached) {
  const ReplayGroup g = replay_group("hotspot", FaultPlan::droop(12005, 200, 5));
  std::vector<std::unique_ptr<core::InstrTraceCollector>> sinks;
  const exp::ScenarioProbe attach = [&sinks](runtime::Device& dev,
                                             workloads::Workload&,
                                             core::ExecSession&) {
    sinks.push_back(std::make_unique<core::InstrTraceCollector>());
    dev.gpu().set_trace_sink(sinks.back().get());
  };
  const ForkPair p = fork_with_and_without_replay(g, attach);
  EXPECT_EQ(0u, p.replayed);
  // The sink saw every instruction of the re-executed round.
  ASSERT_EQ(2u, sinks.size());
  EXPECT_GT(sinks[0]->size(), 0u);
  EXPECT_EQ(sinks[1]->size(), sinks[0]->size());
}

TEST(CkptReplay, RefusesWhileCapturesCanFire) {
  const ReplayGroup g = replay_group("hotspot", FaultPlan::droop(12005, 200, 5));
  const ckpt::SyncRound& round = g.base.round;

  // Interval checkpoints: the rollback round captures them all again.
  ScenarioSpec interval = g.set[1];
  interval.ckpt = ckpt::CheckpointPolicy::interval(2500);
  // A capture target inside the round fires again after the rollback.
  ScenarioSpec targeted = g.set[1];
  const Cycle target = (round.entry->cycle + round.exit->cycle) / 2;

  for (const ScenarioSpec& spec : {interval, targeted}) {
    SCOPED_TRACE(spec.label());
    struct Run {
      ScenarioResult r;
      u64 replayed = 0;
      u64 captures = 0;
      SnapshotIo io;
    };
    const auto run = [&](bool offered) {
      Run out;
      if (!spec.ckpt.active()) out.io.capture_targets = {target};
      if (offered) out.io.replay = round;
      const exp::ScenarioProbe probe = [&out](runtime::Device& dev,
                                              workloads::Workload&,
                                              core::ExecSession&) {
        out.replayed = dev.rounds_replayed();
        out.captures = dev.policy_captures();
      };
      out.r = exp::run_scenario(spec, 1, probe, nullptr, &out.io);
      EXPECT_TRUE(out.r.ok) << out.r.error;
      return out;
    };
    const Run offered = run(true);
    const Run unavailable = run(false);
    EXPECT_GE(offered.r.attempts, 2u);
    EXPECT_EQ(0u, offered.replayed);
    EXPECT_TRUE(offered.r.deterministic_fields_equal(unavailable.r))
        << diff_hint(offered.r, unavailable.r);
    EXPECT_EQ(unavailable.captures, offered.captures);
    if (spec.ckpt.active()) {
      EXPECT_GT(offered.captures, 2u);
    } else {
      ASSERT_NE(offered.io.captured[0], nullptr);
      ASSERT_NE(unavailable.io.captured[0], nullptr);
      EXPECT_EQ(unavailable.io.captured[0]->hash(),
                offered.io.captured[0]->hash());
    }
  }
}

// ---- Rollback recovery ----------------------------------------------------

/// Fault plans to try on a run of `span` cycles until the DCLS pair
/// detects one: a droop window a quarter of the way in, then one spanning
/// half the run, then a permanent SM-0 defect (detected by any workload
/// that runs a block on SM 0, i.e. all of them under SRRS).
std::vector<FaultPlan> candidate_plans(Cycle span) {
  return {
      FaultPlan::droop(3000 + span / 4, std::max<Cycle>(800, span / 4), 3),
      FaultPlan::droop(3000, std::max<Cycle>(800, span / 2), 7),
      FaultPlan::permanent_sm(0, 0, 7),
  };
}

/// Runs `wl` under the first candidate plan the DCLS pair detects, once
/// with whole-offload retry and once with checkpoint rollback, and checks
/// that rollback recovers where it can and always responds sooner.
void expect_rollback_beats_retry(const std::string& wl) {
  SCOPED_TRACE(wl);
  const ScenarioResult clean =
      exp::run_scenario(make_spec(wl, sim::SimEngine::kEvent));
  ASSERT_TRUE(clean.ok) << clean.error;

  // The retry run's first attempt is the plain DCLS run, so it doubles as
  // the detection probe.
  ScenarioSpec retry = make_spec(wl, sim::SimEngine::kEvent);
  retry.redundancy = core::RedundancySpec::dcls_retry(2);
  ScenarioResult r_retry;
  for (const FaultPlan& plan : candidate_plans(clean.stats.get("cycles"))) {
    retry.fault = plan;
    r_retry = exp::run_scenario(retry);
    ASSERT_TRUE(r_retry.ok) << r_retry.error;
    if (r_retry.outcome == fault::Outcome::kDetected) break;
  }
  ASSERT_EQ(r_retry.outcome, fault::Outcome::kDetected)
      << "no candidate fault plan was detected";
  const FaultPlan& plan = retry.fault;
  SCOPED_TRACE(plan.label());
  // Only these two workloads miss both droop windows; pinning the set
  // keeps a workload from silently losing its recovery check below.
  const bool permanent = plan.kind == FaultPlan::Kind::kPermanentSm;
  EXPECT_EQ(permanent, wl == "kmeans" || wl == "particlefilter");

  ScenarioSpec rollback = retry;
  rollback.redundancy = core::RedundancySpec::dcls_rollback(2);
  const ScenarioResult r_rb = exp::run_scenario(rollback);
  ASSERT_TRUE(r_rb.ok) << r_rb.error;

  EXPECT_EQ(r_rb.outcome, fault::Outcome::kDetected);
  EXPECT_GT(r_rb.attempts, 1u);
  // A droop is a one-time event, so rolling back recovers from it. bfs is
  // the exception: it compares once, after a host loop that read the
  // device's corrupted frontier flag every round, and re-running kernels
  // cannot undo those host decisions; only a whole-offload retry can.
  if (!permanent && wl != "bfs") {
    EXPECT_TRUE(r_rb.verified);
    EXPECT_TRUE(r_rb.recovered);
  }
  // The point of checkpointing: the response fits a tighter budget than
  // whole-offload re-execution.
  EXPECT_LT(r_rb.response_ns, r_retry.response_ns);
}

TEST(CkptRollback, RecoversFromTransientAndBeatsRetry) {
  expect_rollback_beats_retry("hotspot");
  expect_rollback_beats_retry("nn");
}

// cfd's droop writes through wild addresses; each costs the store one
// page, so the sweep stays small enough for the sanitizer jobs.
TEST(CkptRollback, BeatsRetryOnEveryWorkload) {
  for (const std::string& wl : workloads::all_names())
    expect_rollback_beats_retry(wl);
}

TEST(CkptRollback, WalksBackPastDirtyIntervalCheckpoints) {
  // Interval checkpoints land mid-execution; ones captured after the fault
  // corrupted state fail their re-comparison and the walk falls back to an
  // older clean checkpoint (ultimately the pre-kernel one).
  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.fault = FaultPlan::droop(9000, 1500, 3);
  spec.redundancy = core::RedundancySpec::dcls_rollback(4);
  spec.ckpt = ckpt::CheckpointPolicy::interval(2500);
  const ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.recovered);
}

TEST(CkptRollback, PermanentFaultIsNotRecoverable) {
  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.fault = FaultPlan::permanent_sm(0, 0, 7);
  spec.redundancy = core::RedundancySpec::dcls_rollback(2);
  const ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  // A permanent defect re-corrupts every re-execution; rollback must not
  // claim recovery (and must not silently pass corrupted data).
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.outcome, fault::Outcome::kDetected);
}

// ---- Snapshot hashing and divergence diagnosis ----------------------------

TEST(CkptSnapshot, HashStableAcrossSaveRestoreSave) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(4096);
  std::vector<u32> data(1024, 0xDEADBEEF);
  dev.memcpy_h2d(p, data.data(), data.size() * 4);

  const ckpt::SnapshotPtr snap = dev.snapshot();
  EXPECT_GT(snap->size_bytes(), 0u);

  runtime::Device dev2;
  dev2.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  dev2.restore(*snap);
  const ckpt::SnapshotPtr snap2 = dev2.snapshot();
  EXPECT_EQ(snap->hash(), snap2->hash());
  EXPECT_EQ(ckpt::first_divergence(*snap, *snap2), "");
  EXPECT_EQ(dev2.elapsed_ns(), dev.elapsed_ns());
}

TEST(CkptSnapshot, RestoreRejectsMismatchedParameters) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const ckpt::SnapshotPtr snap = dev.snapshot();

  sim::GpuParams other;
  other.num_sms = 4;
  runtime::Device dev2(other);
  dev2.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  EXPECT_THROW(dev2.restore(*snap), ckpt::SnapshotError);
}

/// The image of the store page holding `addr` in `s`, or null when that
/// page was never written.
ckpt::ImagePtr store_page(const ckpt::Snapshot& s, memsys::DevPtr addr) {
  for (const ckpt::StorePage& page : s.store_pages)
    if (page.index == addr / ckpt::kStorePageBytes) return page.image;
  return nullptr;
}

TEST(CkptSnapshot, DivergenceNamesTheStore) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(256);
  u32 v = 1;
  dev.memcpy_h2d(p, &v, 4);
  const ckpt::SnapshotPtr a = dev.snapshot();
  const std::vector<u8> a_bytes = ckpt::encode_snapshot(*a);
  v = 2;
  dev.memcpy_h2d(p, &v, 4);
  const ckpt::SnapshotPtr b = dev.snapshot();
  // Only global-store contents (and the host timeline) changed; the report
  // names the device address of the first differing byte.
  char want[32];
  std::snprintf(want, sizeof(want), "store @0x%x", p);
  EXPECT_EQ(ckpt::first_divergence(*a, *b), want);
  // Copy-on-write: the write after the first capture re-imaged a page for
  // the second one and left the first snapshot untouched.
  EXPECT_EQ(ckpt::encode_snapshot(*a), a_bytes);
  EXPECT_NE(store_page(*a, p), nullptr);
  EXPECT_NE(store_page(*a, p), store_page(*b, p));
}

// ---- Page-shared store images ---------------------------------------------

/// Bytes of `dev`'s global store in [0, end).
std::vector<u8> store_bytes(runtime::Device& dev, u64 end) {
  std::vector<u8> out(end);
  dev.gpu().store().read_block(out.data(), 0, end);
  return out;
}

TEST(CkptStorePages, UnwrittenStoreImagesNoPages) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(3 * ckpt::kStorePageBytes);
  std::vector<u8> data(3 * ckpt::kStorePageBytes, 0x5A);
  dev.memcpy_h2d(p, data.data(), data.size());
  const memsys::GlobalStore& store = dev.gpu().store();

  const ckpt::SnapshotPtr a = dev.snapshot();
  const u64 after_first = store.pages_imaged();
  EXPECT_EQ(after_first, a->store_pages.size());

  const ckpt::SnapshotPtr b = dev.snapshot();
  EXPECT_EQ(store.pages_imaged(), after_first);  // nothing written: 0 pages
  ASSERT_EQ(a->store_pages.size(), b->store_pages.size());
  for (size_t i = 0; i < a->store_pages.size(); ++i) {
    EXPECT_EQ(a->store_pages[i].index, b->store_pages[i].index);
    EXPECT_EQ(a->store_pages[i].image, b->store_pages[i].image) << "page " << i;
  }
  EXPECT_EQ(a->hash(), b->hash());

  dev.gpu().store().write32(p + 8, 7);
  const ckpt::SnapshotPtr c = dev.snapshot();
  EXPECT_EQ(store.pages_imaged(), after_first + 1);  // one word, one page
  EXPECT_NE(a->hash(), c->hash());
  EXPECT_EQ(a->size_bytes(), c->size_bytes());
}

TEST(CkptStorePages, RestoreThenCaptureRoundTrips) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  // 256 + 5000 bytes: two pages, each held whole.
  const memsys::DevPtr p = dev.malloc(5000);
  std::vector<u8> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  dev.memcpy_h2d(p, data.data(), data.size());
  const u64 size_a = p + 5000;
  const ckpt::SnapshotPtr a = dev.snapshot();
  ASSERT_EQ(a->store_pages.size(), 2u);
  EXPECT_EQ(a->store_pages.back().image->bytes.size(), ckpt::kStorePageBytes);
  const std::vector<u8> bytes_a = store_bytes(dev, size_a);

  // A write straddling the page boundary, then growth of the extent.
  const u8 straddle[6] = {1, 2, 3, 4, 5, 6};
  dev.memcpy_h2d(static_cast<memsys::DevPtr>(ckpt::kStorePageBytes - 3),
                 straddle, sizeof(straddle));
  (void)dev.malloc(1000);
  const ckpt::SnapshotPtr b = dev.snapshot();
  EXPECT_GT(b->size_bytes(), a->size_bytes());
  EXPECT_EQ(ckpt::first_divergence(*a, *b), "store");  // cursor and size

  // Restore a on this device: contents, hash and divergence round-trip, and
  // the restored images are shared by the next capture.
  dev.restore(*a);
  EXPECT_EQ(store_bytes(dev, size_a), bytes_a);
  const u64 imaged = dev.gpu().store().pages_imaged();
  const ckpt::SnapshotPtr a2 = dev.snapshot();
  EXPECT_EQ(dev.gpu().store().pages_imaged(), imaged);
  EXPECT_EQ(a2->hash(), a->hash());
  EXPECT_EQ(ckpt::first_divergence(*a, *a2), "");

  // And forward again to b, on this device and on a fresh one.
  dev.restore(*b);
  EXPECT_EQ(dev.snapshot()->hash(), b->hash());
  runtime::Device fresh;
  fresh.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  fresh.restore(*b);
  const ckpt::SnapshotPtr b2 = fresh.snapshot();
  EXPECT_EQ(b2->hash(), b->hash());
  EXPECT_EQ(ckpt::first_divergence(*b, *b2), "");
  u8 back[6];
  fresh.gpu().store().read_block(
      back, static_cast<memsys::DevPtr>(ckpt::kStorePageBytes - 3), 6);
  EXPECT_EQ(std::memcmp(back, straddle, 6), 0);
}

TEST(CkptStorePages, CorruptPageIsNamedOnDecode) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(2 * ckpt::kStorePageBytes);
  std::vector<u8> data(2 * ckpt::kStorePageBytes, 0x33);
  dev.memcpy_h2d(p, data.data(), data.size());
  ckpt::Snapshot bad = *dev.snapshot();

  // Flip a byte of one page image but keep its stored hash: the damage
  // predates encoding, so only the per-page check can catch it.
  ASSERT_EQ(bad.store_pages[1].index, 1u);
  auto page = std::make_shared<ckpt::Image>(*bad.store_pages[1].image);
  page->bytes[17] ^= 0xFF;
  bad.store_pages[1].image = page;
  try {
    (void)ckpt::decode_snapshot(ckpt::encode_snapshot(bad));
    FAIL() << "a corrupt store page decoded";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("store page @0x1000"),
              std::string::npos)
        << e.what();
  }
}

TEST(CkptStorePages, RestoreRefusesMalformedPages) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(64);
  const u32 v = 5;
  dev.memcpy_h2d(p, &v, 4);
  const ckpt::SnapshotPtr good = dev.snapshot();

  ckpt::Snapshot extent = *good;
  extent.store_extent += 1;
  EXPECT_THROW(dev.restore(extent), ckpt::SnapshotError);

  ckpt::Snapshot shorter = *good;
  ASSERT_EQ(shorter.store_pages.size(), 1u);
  shorter.store_pages[0].image = ckpt::make_image(std::vector<u8>(100, 0));
  EXPECT_THROW(dev.restore(shorter), ckpt::SnapshotError);

  dev.restore(*good);
  u32 back = 0;
  dev.memcpy_d2h(&back, p, 4);
  EXPECT_EQ(back, 5u);
}

// ---- Launch and block-record history images --------------------------------

/// A device that has run `launches` launches of a two-block kernel, in
/// synchronized rounds of 100.
std::unique_ptr<runtime::Device> long_lived_device(u32 launches) {
  auto dev = std::make_unique<runtime::Device>();
  dev->set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr out = dev->malloc(64 * 4);
  const isa::ProgramPtr prog = testing::make_store_kernel();
  for (u32 i = 0; i < launches; ++i) {
    sim::KernelLaunch l = testing::make_launch(prog, 64, 32, {out, 64});
    l.tag = "k" + std::to_string(i);
    dev->launch(std::move(l));
    if (i % 100 == 99) dev->synchronize();
  }
  dev->synchronize();
  return dev;
}

/// Launch `n` more two-block kernels, synchronizing when `sync` is set.
void launch_more(runtime::Device& dev, u32 n, bool sync) {
  const memsys::DevPtr out = dev.malloc(64 * 4);
  const isa::ProgramPtr prog = testing::make_spin_kernel(5);
  for (u32 i = 0; i < n; ++i)
    dev.launch(testing::make_launch(prog, 64, 32, {out, 64}));
  if (sync) dev.synchronize();
}

/// The launch and block-record history a GPU exposes.
struct History {
  std::vector<sim::BlockRecord> records;
  std::vector<sim::KernelState> states;
  std::vector<sim::KernelLaunch> launches;
};

History history_of(sim::Gpu& gpu) {
  History h;
  h.records = gpu.block_records();
  for (u32 i = 0; i < gpu.kernel_states().size(); ++i) {
    h.states.push_back(gpu.kernel_state(i));
    h.launches.push_back(gpu.launch_of(i));
  }
  return h;
}

void expect_history(sim::Gpu& gpu, const History& want) {
  const History got = history_of(gpu);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (size_t i = 0; i < got.records.size(); ++i) {
    const sim::BlockRecord& a = got.records[i];
    const sim::BlockRecord& b = want.records[i];
    EXPECT_TRUE(a.launch_id == b.launch_id && a.block_linear == b.block_linear &&
                a.sm == b.sm && a.intended_sm == b.intended_sm &&
                a.dispatch_cycle == b.dispatch_cycle &&
                a.end_cycle == b.end_cycle)
        << "block record " << i;
  }
  ASSERT_EQ(got.states.size(), want.states.size());
  for (size_t i = 0; i < got.states.size(); ++i) {
    const sim::KernelState& a = got.states[i];
    const sim::KernelState& b = want.states[i];
    EXPECT_TRUE(a.launch_id == b.launch_id && a.arrival == b.arrival &&
                a.blocks_dispatched == b.blocks_dispatched &&
                a.blocks_done == b.blocks_done &&
                a.total_blocks == b.total_blocks &&
                a.first_dispatch_cycle == b.first_dispatch_cycle &&
                a.done_cycle == b.done_cycle)
        << "kernel state " << i;
    const sim::KernelLaunch& la = got.launches[i];
    const sim::KernelLaunch& lb = want.launches[i];
    EXPECT_TRUE(la.program == lb.program && la.grid.x == lb.grid.x &&
                la.block.x == lb.block.x && la.params == lb.params &&
                la.hints.start_sm == lb.hints.start_sm &&
                la.hints.sm_mask == lb.hints.sm_mask &&
                la.stream == lb.stream && la.tag == lb.tag)
        << "launch " << i;
  }
}

TEST(CkptHistory, SecondCaptureEncodesOnlyNewHistory) {
  auto dev = long_lived_device(2100);
  sim::Gpu& gpu = dev->gpu();
  const ckpt::SnapshotPtr a = dev->snapshot();
  const size_t launches_a = gpu.kernel_states().size();
  const size_t records_a = gpu.block_records().size();
  EXPECT_EQ(gpu.history_records_encoded(), launches_a + records_a);
  const u64 after_first = gpu.history_records_encoded();

  launch_more(*dev, 3, /*sync=*/true);
  launch_more(*dev, 2, /*sync=*/false);  // still queued at the capture
  const ckpt::SnapshotPtr b = dev->snapshot();
  const u64 new_records = gpu.block_records().size() - records_a;
  EXPECT_EQ(new_records, 6u);
  // The appended records, the three launches that finished since, and the
  // two unfinished ones: nothing of the 2100 launches before.
  EXPECT_EQ(gpu.history_records_encoded() - after_first, new_records + 3 + 2);
  EXPECT_EQ(b->launch_count, launches_a + 5);
  // Every sealed image of the first capture is shared by the second.
  ASSERT_GE(a->record_images.size(), 2u);
  ASSERT_GE(a->launch_images.size(), 2u);
  for (size_t i = 0; i + 1 < a->record_images.size(); ++i)
    EXPECT_EQ(a->record_images[i], b->record_images[i]) << "record image " << i;
  for (size_t i = 0; i + 1 < a->launch_images.size(); ++i)
    EXPECT_EQ(a->launch_images[i], b->launch_images[i]) << "launch image " << i;
}

TEST(CkptHistory, SizeBytesIsTheFlatStateSize) {
  // Values of the flat layout, where the gpu section held every launch and
  // block record: a rollback is charged restore_ns(size_bytes()), so
  // moving the history into images must not change them.
  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.redundancy = core::RedundancySpec::dcls_rollback(2);
  SnapshotIo io;
  const ScenarioResult r = exp::run_scenario(spec, 0, nullptr, nullptr, &io);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(io.final_state->size_bytes(), 199725u);
  auto dev = long_lived_device(300);
  launch_more(*dev, 2, /*sync=*/false);
  EXPECT_EQ(dev->snapshot()->size_bytes(), 227539u);
}

TEST(CkptHistory, RestoreBringsBackHistoryAndHash) {
  auto dev = long_lived_device(300);
  sim::Gpu& gpu = dev->gpu();
  const ckpt::SnapshotPtr a = dev->snapshot();
  const History at_a = history_of(gpu);

  launch_more(*dev, 150, /*sync=*/true);
  (void)dev->snapshot();  // images past the first capture
  launch_more(*dev, 1, /*sync=*/false);
  dev->restore(*a);
  expect_history(gpu, at_a);
  const ckpt::SnapshotPtr a2 = dev->snapshot();
  EXPECT_EQ(a2->hash(), a->hash());
  EXPECT_EQ(ckpt::first_divergence(*a, *a2), "");

  // A rollback restores the same history (its host timeline moves on).
  launch_more(*dev, 70, /*sync=*/true);
  dev->rollback(*a);
  expect_history(gpu, at_a);

  runtime::Device fresh;
  fresh.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  fresh.restore(*a);
  expect_history(fresh.gpu(), at_a);
  EXPECT_EQ(fresh.snapshot()->hash(), a->hash());
}

TEST(CkptHistory, CutOrPaddedRecordImageIsNamedOnRestore) {
  auto dev = long_lived_device(300);
  const ckpt::SnapshotPtr snap = dev->snapshot();
  ASSERT_GE(snap->record_images.size(), 2u);
  // A record image cut mid-record or followed by a stray byte, with a
  // matching hash: the image decoder itself must refuse it by name.
  for (const bool pad : {false, true}) {
    SCOPED_TRACE(pad ? "padded" : "cut");
    ckpt::Snapshot bad = *snap;
    std::vector<u8> bytes = bad.record_images[1]->bytes;
    if (pad)
      bytes.push_back(0);
    else
      bytes.resize(bytes.size() - 3);
    bad.record_images[1] = ckpt::make_image(std::move(bytes));
    runtime::Device fresh;
    fresh.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
    try {
      fresh.restore(bad);
      ADD_FAILURE() << "a damaged block-record image restored";
    } catch (const ckpt::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("block-record image 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CkptDecode, ProgramTheVerifierRefusesIsNamed) {
  // A restore compiles and runs every program in a snapshot's table, so a
  // framed program the launch gate would refuse is refused on decode.
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
  const u32 n = 512;
  const memsys::DevPtr out = dev.malloc(n * 4);
  dev.launch(testing::make_launch(testing::make_spin_kernel(300), n, 128,
                                  {out, n}));
  for (int i = 0; i < 500; ++i) dev.gpu().step();
  ckpt::Snapshot bad = *dev.snapshot();
  ASSERT_EQ(bad.programs.size(), 1u);
  EXPECT_NO_THROW((void)ckpt::decode_snapshot(ckpt::encode_snapshot(bad)));

  const isa::KernelProgram& spin = *bad.programs[0];
  bad.programs[0] = std::make_shared<const isa::KernelProgram>(
      spin.name(), std::vector<isa::Instruction>{}, spin.num_regs(),
      spin.num_preds(), spin.shared_bytes(), spin.num_params());
  try {
    const ckpt::SnapshotPtr back =
        ckpt::decode_snapshot(ckpt::encode_snapshot(bad));
    runtime::Device fresh;
    fresh.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
    fresh.restore(*back);
    FAIL() << "a snapshot with an empty program decoded";
  } catch (const ckpt::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("snapshot program 0"), std::string::npos) << what;
    EXPECT_NE(what.find("empty-program"), std::string::npos) << what;
  }
}

TEST(CkptHistory, CorruptImageIsNamedOnDecode) {
  auto dev = long_lived_device(300);
  const ckpt::SnapshotPtr snap = dev->snapshot();
  const auto expect_named = [](const ckpt::Snapshot& bad, const char* name) {
    try {
      (void)ckpt::decode_snapshot(ckpt::encode_snapshot(bad));
      FAIL() << "a corrupt " << name << " decoded";
    } catch (const ckpt::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  // Flip a byte but keep the stored hash: the damage predates encoding.
  ckpt::Snapshot bad_records = *snap;
  ASSERT_GE(bad_records.record_images.size(), 2u);
  auto records = std::make_shared<ckpt::Image>(*bad_records.record_images[1]);
  records->bytes[5] ^= 0xFF;
  bad_records.record_images[1] = records;
  expect_named(bad_records, "block-record image 1");

  ckpt::Snapshot bad_launches = *snap;
  ASSERT_FALSE(bad_launches.launch_images.empty());
  auto launches = std::make_shared<ckpt::Image>(*bad_launches.launch_images[0]);
  launches->bytes[9] ^= 0xFF;
  bad_launches.launch_images[0] = launches;
  expect_named(bad_launches, "launch image 0");
}

TEST(CkptHistory, DivergenceInOneRecordNamesGpu) {
  auto dev = long_lived_device(300);
  const ckpt::SnapshotPtr a = dev->snapshot();
  ckpt::Snapshot b = *a;
  std::vector<u8> bytes = b.record_images[0]->bytes;
  bytes[3 * 32 + 24] ^= 1;  // end_cycle of block record 3
  b.record_images[0] = ckpt::make_image(std::move(bytes));
  EXPECT_EQ(ckpt::first_divergence(*a, b), "gpu");
  EXPECT_NE(a->hash(), b.hash());
}

// ---- Section hash ----------------------------------------------------------

TEST(CkptHash, KnownAnswers) {
  // hash64 is the XXH64 construction; these pin it byte for byte. The
  // empty-input value is XXH64's published one, and short strings match
  // the published vectors too, so the lanes, the tail and the avalanche
  // are all the reference ones.
  std::vector<u8> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 131 + 7);
  const std::pair<size_t, u64> vectors[] = {
      {0, 0xef46db3751d8e999ull},    {1, 0xa96c7f0ce858bbb7ull},
      {7, 0x2744460dd675d2c0ull},    {31, 0x6711d55e306b5d8full},
      {32, 0x07f7b8e3bc5d6e25ull},   {33, 0x09f85eeb4e1cbe9full},
      {4096, 0xcf05adf75aca30cfull},
  };
  for (const auto& [len, want] : vectors)
    EXPECT_EQ(ckpt::hash64(buf.data(), len), want) << "length " << len;
  const auto str = [](const char* s) {
    return ckpt::hash64(reinterpret_cast<const u8*>(s), std::strlen(s));
  };
  EXPECT_EQ(str("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(str("abc"), 0x44bc2cf5ad770999ull);
}

// ---- Length fields are checked before anything is allocated ---------------

constexpr u64 kHugeLength = 1ull << 60;

/// A snapshot frame with a valid header and checksum around `body`.
std::vector<u8> frame_with(const std::function<void(ckpt::Writer&)>& body) {
  ckpt::Writer w;
  w.put64(ckpt::kWireMagic);
  w.put32(ckpt::kWireVersion);
  w.put32(ckpt::Snapshot::kVersion);
  for (int i = 0; i < 6; ++i) w.put64(0);  // capture metadata
  body(w);
  std::vector<u8> out = w.take_blob();
  const u64 sum = ckpt::hash64(out.data(), out.size());
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(sum >> (8 * i)));
  return out;
}

void expect_refused(const std::vector<u8>& frame, const std::string& what) {
  try {
    (void)ckpt::decode_snapshot(frame);
    FAIL() << "decoded a frame with a huge " << what << " length";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(CkptDecodeLengths, SectionTable) {
  expect_refused(frame_with([](ckpt::Writer& w) { w.put64(kHugeLength); }),
                 "section table");
}

TEST(CkptDecodeLengths, Blob) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(kHugeLength);
                 }),
                 "snapshot blob");
}

TEST(CkptDecodeLengths, StorePageTable) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(kHugeLength);
                 }),
                 "store page table");
}

TEST(CkptDecodeLengths, StorePage) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(1);  // one page...
                   w.put32(0);  // ...its index...
                   w.put64(kHugeLength);
                   w.put64(0);  // ...and its hash
                 }),
                 "store page @0x0");
}

// ---- The store page table holds ascending, in-range, whole pages ---------

/// Frame one store page of `len` zero bytes at `index`.
void put_zero_page(ckpt::Writer& w, u32 index, u64 len) {
  const std::vector<u8> zeros(len, 0);
  w.put32(index);
  w.put64(len);
  w.put64(ckpt::hash64(zeros.data(), zeros.size()));
  w.put_bytes(zeros.data(), zeros.size());
}

/// A frame whose store page table holds zero pages at `indices`, each
/// `len` bytes long.
std::vector<u8> frame_with_pages(const std::vector<u32>& indices,
                                 u64 len = ckpt::kStorePageBytes) {
  return frame_with([&](ckpt::Writer& w) {
    w.put64(0);  // sections
    w.put64(0);  // blob
    w.put64(indices.size());
    for (u32 index : indices) put_zero_page(w, index, len);
    for (int i = 0; i < 3; ++i) w.put64(0);  // history tables and programs
  });
}

TEST(CkptDecodeStorePages, WellFormedTableDecodes) {
  const ckpt::SnapshotPtr snap =
      ckpt::decode_snapshot(frame_with_pages({0, 7, (1u << 20) - 1}));
  ASSERT_EQ(snap->store_pages.size(), 3u);
  EXPECT_EQ(snap->store_pages[2].index, (1u << 20) - 1);
}

TEST(CkptDecodeStorePages, OutOfOrder) {
  expect_refused(frame_with_pages({3, 2}), "store page table out of order");
}

TEST(CkptDecodeStorePages, DuplicateIndex) {
  expect_refused(frame_with_pages({2, 2}), "duplicate index 2");
}

TEST(CkptDecodeStorePages, IndexOutOfRange) {
  expect_refused(frame_with_pages({1u << 20}),
                 "store page index 1048576 is out of range");
}

TEST(CkptDecodeStorePages, ShortPage) {
  expect_refused(frame_with_pages({1}, 100), "store page @0x1000 is 100 bytes");
}

TEST(CkptDecodeStorePages, CountPastTheBytesLeft) {
  // Two pages claimed, one framed: the count is refused before either is
  // read.
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(2);
                   w.put32(0);
                   w.put64(ckpt::kStorePageBytes);
                 }),
                 "store page table length 2 exceeds");
}

TEST(CkptDecodeLengths, LaunchImageTable) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(0);  // store pages
                   w.put64(kHugeLength);
                 }),
                 "launch image table");
}

TEST(CkptDecodeLengths, HistoryImage) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(0);  // store pages
                   w.put64(0);  // launch images
                   w.put64(1);  // one block-record image...
                   w.put64(kHugeLength);
                   w.put64(0);  // ...and its hash
                 }),
                 "block-record image 0");
}

TEST(CkptDecodeLengths, ProgramTable) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(0);  // store pages
                   w.put64(0);  // launch images
                   w.put64(0);  // block-record images
                   w.put64(kHugeLength);
                 }),
                 "program table");
}

TEST(CkptDecodeLengths, ProgramCode) {
  expect_refused(frame_with([](ckpt::Writer& w) {
                   w.put64(0);  // sections
                   w.put64(0);  // blob
                   w.put64(0);  // store pages
                   w.put64(0);  // launch images
                   w.put64(0);  // block-record images
                   w.put64(1);  // one program...
                   w.put_string("k");
                   w.put16(1);  // regs
                   w.put16(1);  // preds
                   w.put32(0);  // shared bytes
                   w.put32(0);  // params
                   w.put64(kHugeLength);
                 }),
                 "program.code");
}

TEST(CkptDecodeLengths, ReaderVectors) {
  ckpt::Writer w;
  w.put64(kHugeLength);
  const std::vector<u8> bytes = w.take_blob();
  const std::vector<ckpt::Section> no_sections;
  const auto refused = [&](auto vec) {
    ckpt::Reader r(bytes, no_sections);
    try {
      ckpt::get_field(r, vec, ckpt::FieldPath{"vec"});
      ADD_FAILURE() << "a huge count was accepted";
    } catch (const ckpt::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("vec length"), std::string::npos)
          << e.what();
    }
  };
  refused(std::vector<u8>{});
  refused(std::vector<u32>{});
  refused(std::vector<u64>{});
  refused(std::vector<sim::StackEntry>{});
  {
    ckpt::Reader r(bytes, no_sections);
    EXPECT_THROW((void)r.get_string(), ckpt::SnapshotError);
  }
}

// ---- Enum bytes no enumerator has are refused by name ---------------------

/// A frame holding one one-instruction program, `ins`.
std::vector<u8> program_frame(const isa::Instruction& ins) {
  ckpt::Snapshot s;
  s.programs = {std::make_shared<const isa::KernelProgram>(
      "k", std::vector<isa::Instruction>{ins}, 4, 2, 0, 0)};
  return ckpt::encode_snapshot(s);
}

/// Overwrite byte `at` of a frame with `v` and re-seal its checksum, so the
/// decoder looks past the frame integrity check at the field itself.
std::vector<u8> patched_frame(std::vector<u8> frame, size_t at, u8 v) {
  frame[at] = v;
  const size_t body = frame.size() - 8;
  const u64 sum = ckpt::hash64(frame.data(), body);
  for (size_t i = 0; i < 8; ++i) frame[body + i] = static_cast<u8>(sum >> (8 * i));
  return frame;
}

TEST(CkptDecodeEnums, ProgramEnumFieldsAreRefusedByName) {
  isa::Instruction base;
  const std::vector<u8> frame = program_frame(base);
  const std::pair<const char*, std::function<void(isa::Instruction&)>>
      fields[] = {
          {"code.op", [](isa::Instruction& i) { i.op = isa::Op::kMov; }},
          {"code.src.kind",
           [](isa::Instruction& i) { i.src[0].kind = isa::OperandKind::kReg; }},
          {"code.cmp", [](isa::Instruction& i) { i.cmp = isa::CmpOp::kNe; }},
          {"code.dtype", [](isa::Instruction& i) { i.dtype = isa::DType::kF32; }},
          {"code.sreg", [](isa::Instruction& i) { i.sreg = isa::SReg::kWarpId; }},
      };
  for (const auto& [path, change] : fields) {
    // The field's byte is the first one a frame differing only there moves.
    isa::Instruction moved = base;
    change(moved);
    const std::vector<u8> other = program_frame(moved);
    ASSERT_EQ(frame.size(), other.size()) << path;
    size_t at = 0;
    while (frame[at] == other[at]) ++at;
    try {
      (void)ckpt::decode_snapshot(patched_frame(frame, at, 0xFF));
      ADD_FAILURE() << path << " accepted an out-of-range value";
    } catch (const ckpt::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

// ---- Restore refuses corrupt counts before allocating ---------------------

/// Blob offsets of the count fields SmCore::restore and
/// MemHierarchy::restore allocate from, found by walking the "sm<i>" and
/// "memsys" sections in their save() layout.
struct CountFields {
  std::vector<size_t> shared, stack, preds, pending;  // active blocks / warps
  std::vector<size_t> mshr;                           // per SM
  std::vector<u64> mshr_len;                          // entries, per SM
  u32 structural_stalls = 0;  // live structural stall records, all SMs
  std::vector<size_t> stall_cls;  // per SM: its first stall record's class
  std::vector<size_t> launch_id, block_slot;  // active blocks / warps
};

const ckpt::Section& section_named(const ckpt::Snapshot& s,
                                   const std::string& name) {
  for (const ckpt::Section& sec : s.sections)
    if (sec.name == name) return sec;
  throw std::runtime_error("no section " + name);
}

CountFields find_count_fields(const ckpt::Snapshot& s, const sim::GpuParams& p) {
  CountFields f;
  const std::vector<ckpt::Section> none;
  for (u32 i = 0; i < p.num_sms; ++i) {
    const ckpt::Section& sec = section_named(s, "sm" + std::to_string(i));
    ckpt::Reader r(s.blob.data() + sec.offset, sec.len, none);
    const auto here = [&] { return sec.offset + sec.len - r.remaining(); };
    const auto skip_vec = [&](size_t each) { r.take(each * r.get64()); };
    r.take(4 * 4 + 3 * 8);  // occupancy, unit counters, age
    const u64 nsched = r.get64();
    r.take(4 * nsched);
    for (u64 k = 0; k < nsched; ++k) skip_vec(4);
    r.take(8 + 1 + 8);  // settle
    f.stall_cls.push_back(here() + 8);
    for (u32 w = 0; w < p.max_warps_per_sm; ++w) {
      const u64 wake = r.get64();
      const u8 cls = r.get8();  // SmCore::IssueOutcome: 4 is kStructural
      if (wake != 0 && cls == 4) ++f.structural_stalls;
    }
    for (u32 b = 0; b < p.max_blocks_per_sm; ++b) {
      if (!r.getb()) continue;
      f.launch_id.push_back(here());
      r.take(8 * 4);
      f.shared.push_back(here());
      skip_vec(1);
      r.take(3 * 4 + 8);
    }
    for (u32 w = 0; w < p.max_warps_per_sm; ++w) {
      if (!r.getb()) continue;
      f.block_slot.push_back(here() + 8);
      r.take(8 + 4 * 4);
      f.stack.push_back(here());
      skip_vec(12);
      skip_vec(4);  // registers
      f.preds.push_back(here());
      skip_vec(1);
      r.take(1);
      f.pending.push_back(here());
      skip_vec(11);
      r.take(8);
    }
    EXPECT_EQ(r.remaining(), 22u * 8) << "sm" << i << " layout walk is off";
  }
  const ckpt::Section& sec = section_named(s, "memsys");
  ckpt::Reader r(s.blob.data() + sec.offset, sec.len, none);
  for (int v = 0; v < 3; ++v) r.take(8 * r.get64());  // bandwidth counters
  const u64 nsms = r.get64();
  for (u64 i = 0; i < nsms; ++i) {
    f.mshr.push_back(sec.offset + sec.len - r.remaining());
    f.mshr_len.push_back(r.get64());
    r.take(17 * f.mshr_len.back());
  }
  EXPECT_EQ(r.remaining(), 16u * 8) << "memsys layout walk is off";
  return f;
}

void put_le64(std::vector<u8>& blob, size_t at, u64 v) {
  for (int i = 0; i < 8; ++i) blob[at + i] = static_cast<u8>(v >> (8 * i));
}

u64 get_le64(const std::vector<u8>& blob, size_t at) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(blob[at + i]) << (8 * i);
  return v;
}

// ---- Structural-stall herds across a restore ------------------------------

/// A device whose every SM is full of warps queued on the LSU (or the SFU),
/// launched but not yet synchronized. Deterministic, so two calls build
/// devices with identical host histories.
std::unique_ptr<runtime::Device> herd_device(sim::SimEngine engine,
                                             bool sfu) {
  sim::GpuParams p;
  p.engine = engine;
  auto dev = std::make_unique<runtime::Device>(p);
  dev->set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
  const u32 threads = testing::full_gpu_threads(p);
  const memsys::DevPtr out = dev->malloc((threads * 32 + 64) * 4);
  dev->launch(testing::make_launch(sfu ? testing::make_sfu_herd_kernel(24)
                                       : testing::make_lsu_herd_kernel(24),
                                   threads, 256, {out, threads}));
  return dev;
}

/// Mid-herd snapshots of a straight run, and its final state.
struct HerdRun {
  std::vector<ckpt::SnapshotPtr> mid;
  ckpt::SnapshotPtr final_state;
};

HerdRun run_herd(sim::SimEngine engine, bool sfu, std::vector<Cycle> targets) {
  auto dev = herd_device(engine, sfu);
  dev->set_checkpoint_targets(std::move(targets));
  dev->synchronize();
  return {dev->target_snapshots(), dev->snapshot()};
}

/// True when SM 0 of `s` has both its SFU and its LSU booked past the
/// capture cycle (the unit counters open the "sm0" section, after four u32
/// occupancy counters). A warp restored onto the wrong unit is then skipped
/// while its own unit is free, so a capture here makes that bug visible.
bool both_units_busy(const ckpt::Snapshot& s) {
  const ckpt::Section& sec = section_named(s, "sm0");
  return get_le64(s.blob, sec.offset + 16) > s.cycle &&
         get_le64(s.blob, sec.offset + 24) > s.cycle;
}

class CkptHerd
    : public ::testing::TestWithParam<std::tuple<sim::SimEngine, bool>> {};

TEST_P(CkptHerd, RestoreMidHerdRunsToTheStraightResult) {
  const auto [engine, sfu] = GetParam();
  std::vector<Cycle> targets;
  for (Cycle t = 9000; t < 9100; t += 3) targets.push_back(t);
  const HerdRun straight = run_herd(engine, sfu, targets);
  // The stall records of the queued warps are in the snapshot; the unit
  // each one waits on is not, and the restore derives it again from the
  // gate record at the warp's pc.
  u32 resumed_runs = 0;
  for (const ckpt::SnapshotPtr& mid : straight.mid) {
    ASSERT_NE(mid, nullptr);
    ASSERT_LT(mid->cycle, straight.final_state->cycle);
    if (!both_units_busy(*mid)) continue;
    SCOPED_TRACE("capture@" + std::to_string(mid->cycle));
    auto fresh = herd_device(engine, sfu);
    fresh->arm_resume(mid);
    fresh->synchronize();
    const ckpt::SnapshotPtr resumed = fresh->snapshot();
    EXPECT_EQ(resumed->hash(), straight.final_state->hash());
    EXPECT_EQ(ckpt::first_divergence(*straight.final_state, *resumed), "");
    const StatSet stats = fresh->gpu().collect_stats();
    EXPECT_GT(stats.get("issue_stall_structural"),
              4 * stats.get("instructions"));
    if (++resumed_runs == 3) break;
  }
  EXPECT_GT(resumed_runs, 0u) << "no capture had both units busy";
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndUnits, CkptHerd,
    ::testing::Combine(::testing::Values(sim::SimEngine::kEvent,
                                         sim::SimEngine::kDense),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == sim::SimEngine::kEvent
                             ? "event_"
                             : "dense_") +
             (std::get<1>(info.param) ? "sfu" : "lsu");
    });

/// Restoring `s` into a fresh device throws a SnapshotError naming `what`.
void expect_restore_refused(const ckpt::Snapshot& s, const std::string& what) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
  try {
    dev.restore(s);
    FAIL() << "restored a snapshot with a corrupt " << what;
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(CkptRestoreCounts, CorruptCountsAreRefused) {
  const sim::GpuParams p;
  const HerdRun run = run_herd(sim::SimEngine::kEvent, /*sfu=*/false, {6000});
  ASSERT_NE(run.mid.at(0), nullptr);
  const ckpt::Snapshot& good = *run.mid[0];
  const CountFields f = find_count_fields(good, p);
  ASSERT_FALSE(f.shared.empty());
  ASSERT_FALSE(f.stack.empty());
  ASSERT_EQ(f.mshr.size(), p.num_sms);
  {
    runtime::Device dev;  // the uncorrupted snapshot restores
    dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kDefault));
    EXPECT_NO_THROW(dev.restore(good));
  }

  const std::pair<const std::vector<size_t>*, const char*> counts[] = {
      {&f.shared, "block.shared"}, {&f.stack, "warp.stack"},
      {&f.preds, "warp.preds"},    {&f.pending, "warp.pending"},
      {&f.mshr, "memsys.mshr length"}};
  for (const auto& [offsets, what] : counts) {
    for (size_t at : {offsets->front(), offsets->back()}) {
      ckpt::Snapshot bad = good;
      put_le64(bad.blob, at, kHugeLength);
      expect_restore_refused(bad, what);
    }
  }

  // A block naming a launch the snapshot lacks, a warp naming a block slot
  // past the SM's or one that holds no block.
  const std::pair<size_t, u32> indices[] = {
      {f.launch_id.front(), 99},
      {f.block_slot.front(), 0xFFFF},
      {f.block_slot.back(), p.max_blocks_per_sm - 1},
  };
  for (const auto& [at, value] : indices) {
    ckpt::Snapshot bad = good;
    for (int i = 0; i < 4; ++i)
      bad.blob[at + i] = static_cast<u8>(value >> (8 * i));
    expect_restore_refused(bad, at == indices[0].first ? "launch 99"
                                                       : "holds no block");
  }

  // A warp stack entry whose pc lies past the program: the issue stage
  // would read a record past the trace.
  for (size_t at : {f.stack.front(), f.stack.back()}) {
    ASSERT_GT(get_le64(good.blob, at), 0u) << "an active warp's stack is empty";
    ckpt::Snapshot bad = good;
    const size_t pc = at + 8;  // the first entry: pc, rpc, mask
    for (int i = 0; i < 4; ++i)
      bad.blob[pc + i] = static_cast<u8>(0x1000u >> (8 * i));
    expect_restore_refused(bad, "(pc 4096, rpc ");
    expect_restore_refused(bad, "past the program's end pc");
  }

  // An MSHR count that fits the input but not the geometry.
  ckpt::Snapshot over = good;
  put_le64(over.blob, f.mshr[0], p.mem.l1_mshr_entries + 1);
  expect_restore_refused(over, "more than l1_mshr_entries");

  // Entries out of (ready, line) order, and a line in flight twice.
  size_t sm = 0;
  while (sm < f.mshr.size() && f.mshr_len[sm] < 2) ++sm;
  ASSERT_LT(sm, f.mshr.size()) << "no SM had two misses in flight";
  const size_t e0 = f.mshr[sm] + 8;  // entry: line, ready, fill_dirty
  const size_t e1 = e0 + 17;
  ckpt::Snapshot swapped = good;
  std::swap_ranges(swapped.blob.begin() + static_cast<long>(e0),
                   swapped.blob.begin() + static_cast<long>(e1),
                   swapped.blob.begin() + static_cast<long>(e1));
  expect_restore_refused(swapped, "out of (ready, line) order");
  ckpt::Snapshot dup = good;
  put_le64(dup.blob, e1, get_le64(good.blob, e0));
  expect_restore_refused(dup, "twice");
}

// ---- Byte identity of the snapshot blob -----------------------------------

enum class PinSched { kDefault, kSrrs, kEdf };

struct PinCapture {
  ckpt::SnapshotPtr snap;
  Cycle end = 0;  // the clock once the captured launch has drained
};

/// A mid-run capture whose state holds every record the blob encodes: a
/// finished launch in the history images, an unfinished LSU herd (warps
/// queued on a busy unit, MSHRs in flight) on its own stream, an armed
/// fault injector that has corrupted results, and the scheduler `which`
/// (EDF with SRRS placement and two stream deadlines).
PinCapture capture_for_pin(PinSched which) {
  fault::FaultInjector inj;
  inj.arm_transient_sm(1, 2000, 1'000'000, 3);
  const sim::GpuParams p;
  runtime::Device dev(p);
  dev.gpu().set_fault_hook(&inj);
  if (which == PinSched::kEdf) {
    auto edf = std::make_unique<sched::EdfKernelScheduler>(
        sched::EdfKernelScheduler::Placement::kSrrs);
    edf->set_stream_deadline(1, 4'000'000);
    edf->set_stream_deadline(2, 9'000'000);
    dev.set_kernel_scheduler(std::move(edf));
  } else {
    dev.set_kernel_scheduler(sched::make_scheduler(
        which == PinSched::kSrrs ? sched::Policy::kSrrs
                                 : sched::Policy::kDefault));
  }
  const u32 threads = testing::full_gpu_threads(p);
  const memsys::DevPtr out = dev.malloc((threads * 32 + 64) * 4);
  dev.launch(testing::make_launch(testing::make_sfu_herd_kernel(2),
                                  threads / 4, 128, {out, threads / 4}),
             1);
  dev.synchronize();
  dev.launch(testing::make_launch(testing::make_lsu_herd_kernel(24), threads,
                                  256, {out, threads}),
             2);
  dev.set_checkpoint_targets({dev.gpu().now() + 6000});
  dev.synchronize();
  return {dev.target_snapshots().at(0), dev.gpu().now()};
}

TEST(CkptBlobPins, MidRunCapturesKeepTheirBytes) {
  // Pinned from the hand-written save() functions these visitors replaced:
  // a layout change moves the hash, and the size is what rollbacks cost.
  struct Pin {
    PinSched which;
    const char* name;
    u64 hash;
    u64 blob_bytes;
  };
  const Pin pins[] = {
      {PinSched::kDefault, "default", 0x6bf312cd25c2aadcull, 684042},
      {PinSched::kSrrs, "srrs", 0x30b583a703ec6bd1ull, 684035},
      {PinSched::kEdf, "edf", 0x4d9077c2c39a64f2ull, 684067},
  };
  const sim::GpuParams p;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const PinCapture c = capture_for_pin(pin.which);
    ASSERT_NE(c.snap, nullptr);
    // What the capture must hold for the pin to cover every record.
    EXPECT_LT(c.snap->cycle, c.end) << "the herd launch had finished";
    EXPECT_EQ(c.snap->launch_count, 2u);
    EXPECT_FALSE(c.snap->launch_images.empty());
    const CountFields f = find_count_fields(*c.snap, p);
    EXPECT_GT(f.structural_stalls, 0u);
    EXPECT_GT(*std::max_element(f.mshr_len.begin(), f.mshr_len.end()), 0u);
    const ckpt::Section& fault = section_named(*c.snap, "fault");
    EXPECT_NE(c.snap->blob[fault.offset + 1], 0) << "injector not armed";
    EXPECT_EQ(c.snap->hash(), pin.hash);
    EXPECT_EQ(c.snap->blob.size(), pin.blob_bytes);
  }
}

TEST(CkptRestoreEnums, OutOfRangeStateEnumIsRefusedByName) {
  const sim::GpuParams p;
  const PinCapture edf = capture_for_pin(PinSched::kEdf);
  const ckpt::Snapshot& good = *edf.snap;
  const CountFields f = find_count_fields(good, p);
  const size_t sched = section_named(good, "sched").offset + 8 + 3;  // "edf"
  const size_t fault = section_named(good, "fault").offset + 1;  // armed
  const std::pair<size_t, const char*> enums[] = {
      {f.stall_cls.front(), "sm0.warp_stall.cls"},
      {f.stall_cls.back(), "sm5.warp_stall.cls"},
      {sched, "sched.placement"},
      {fault, "fault.mode"},
  };
  const auto restore = [](const ckpt::Snapshot& s) {
    fault::FaultInjector inj;
    runtime::Device dev;
    dev.gpu().set_fault_hook(&inj);
    dev.set_kernel_scheduler(std::make_unique<sched::EdfKernelScheduler>());
    dev.restore(s);
  };
  EXPECT_NO_THROW(restore(good));
  for (const auto& [at, path] : enums) {
    ckpt::Snapshot bad = good;
    bad.blob[at] = 0xFF;
    try {
      restore(bad);
      ADD_FAILURE() << path << " accepted an out-of-range value";
    } catch (const ckpt::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

// ---- Policy / label / sweep validation ------------------------------------

TEST(CkptPolicy, IntervalZeroThrows) {
  EXPECT_THROW(ckpt::CheckpointPolicy::interval(0), std::invalid_argument);
}

TEST(CkptPolicy, LabelsAndSpecLabels) {
  EXPECT_EQ(ckpt::CheckpointPolicy::none().label(), "");
  EXPECT_EQ(ckpt::CheckpointPolicy::interval(5000).label(), "ckpt5000");
  EXPECT_EQ(ckpt::CheckpointPolicy::pre_kernel().label(), "prekernel");
  EXPECT_EQ(core::RedundancySpec::dcls_rollback(2).label(), "red-rollback2");

  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.redundancy = core::RedundancySpec::dcls_rollback(3);
  spec.ckpt = ckpt::CheckpointPolicy::interval(5000);
  const std::string label = spec.label();
  EXPECT_NE(label.find("red-rollback3"), std::string::npos) << label;
  EXPECT_NE(label.find(":ckpt5000"), std::string::npos) << label;
}

TEST(CkptPolicy, CheckpointingDoesNotPerturbResults) {
  ScenarioSpec plain = make_spec("bfs", sim::SimEngine::kEvent);
  ScenarioSpec ckpted = plain;
  ckpted.ckpt = ckpt::CheckpointPolicy::interval(2000);
  const ScenarioResult a = exp::run_scenario(plain);
  const ScenarioResult b = exp::run_scenario(ckpted);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.ff_cycles, b.ff_cycles);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(CkptSweeps, EmptyBaseSetThrowsNamingTheBuilder) {
  const ScenarioSet empty;
  const auto expect_named = [&](const char* name, auto&& call) {
    try {
      call();
      FAIL() << name << " accepted an empty base set";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  expect_named("sweep_policies",
               [&] { (void)empty.sweep_policies({sched::Policy::kSrrs}); });
  expect_named("sweep_faults",
               [&] { (void)empty.sweep_faults({FaultPlan::none()}); });
  expect_named("sweep_seeds", [&] { (void)empty.sweep_seeds({1}); });
  expect_named("sweep_workloads",
               [&] { (void)empty.sweep_workloads({"hotspot"}); });
  expect_named("sweep_redundancy", [&] { (void)empty.sweep_redundancy(); });
  expect_named("sweep_mem",
               [&] { (void)empty.sweep_mem({memsys::MemParams{}}); });
  expect_named("sweep_write_policies",
               [&] { (void)empty.sweep_write_policies(); });
  expect_named("product", [&] {
    (void)empty.product({[](ScenarioSpec&) {}});
  });
}

}  // namespace
}  // namespace higpu
