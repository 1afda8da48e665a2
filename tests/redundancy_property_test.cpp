// Properties of the unified N-copy redundancy API.
//
// 1. Fail-operational TMR: with N = 3 and majority voting under SRRS, any
//    fault plan that corrupts a single copy (droop / transient-SM /
//    permanent-SM) yields `majority && !unanimous` with the faulty copy
//    identified and the host results repaired by the vote — across several
//    workloads and seeds.
// 2. Refactor equivalence: the unified ExecSession reproduces the
//    pre-refactor baseline (N = 1) and DCLS (N = 2, bitwise) paths
//    bit-identically — cycle counts and modelled end-to-end times pinned
//    against goldens captured from the RedundantSession implementation this
//    API replaced.
#include <gtest/gtest.h>

#include <map>

#include "exp/campaign.h"

namespace higpu {
namespace {

// ---- 1. Single-copy faults are out-voted at N = 3 --------------------------

struct TmrFaultCase {
  std::string workload;
  u64 seed;
  /// Builds the plan from the golden (fault-free) execution span of the
  /// group's FIRST copy, so transient windows provably hit one copy only.
  enum class Kind { kDroop, kTransientSm, kPermanentSm } kind;
};

exp::ScenarioSpec tmr_spec(const std::string& workload, u64 seed) {
  exp::ScenarioSpec spec;
  spec.workload = workload;
  spec.scale = workloads::Scale::kTest;
  spec.seed = seed;
  spec.policy = sched::Policy::kSrrs;
  spec.redundancy = core::RedundancySpec::tmr();
  return spec;
}

/// Cycle span [first dispatch, last completion] of the first copy of the
/// first launch group in a golden run — where a transient must land to
/// corrupt exactly one copy.
std::pair<Cycle, Cycle> first_copy_span(const exp::ScenarioSpec& golden) {
  Cycle begin = kNeverCycle, end = 0;
  const exp::ScenarioResult r = exp::run_scenario(
      golden, 0,
      [&](runtime::Device& dev, workloads::Workload&, core::ExecSession& s) {
        const u32 first_id = s.groups().front().front();
        for (const sim::BlockRecord& rec : dev.gpu().block_records()) {
          if (rec.launch_id != first_id) continue;
          begin = std::min(begin, rec.dispatch_cycle);
          end = std::max(end, rec.end_cycle);
        }
      });
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_LT(begin, end);
  return {begin, end};
}

class TmrSingleCopyFaultProperty
    : public ::testing::TestWithParam<TmrFaultCase> {};

TEST_P(TmrSingleCopyFaultProperty, MajorityOutvotesAndRepairs) {
  const TmrFaultCase c = GetParam();
  exp::ScenarioSpec spec = tmr_spec(c.workload, c.seed);

  // Bit 2: corrupted address computations move stores by +-4 bytes, which
  // stays inside the executing copy's own allocation — the plan corrupts
  // exactly one copy. (A high bit like 20 offsets stores by +-1 MiB, which
  // can scribble over ANOTHER copy's buffers: no longer a single-copy
  // fault, and exactly the kind of common-cause escape bitwise DCLS is
  // also blind to.)
  switch (c.kind) {
    case TmrFaultCase::Kind::kPermanentSm:
      // SRRS spreads each logical block across three distinct SMs, so one
      // broken SM corrupts at most one copy of any block.
      spec.fault = exp::FaultPlan::permanent_sm(1, 0, 2);
      break;
    case TmrFaultCase::Kind::kTransientSm: {
      const auto [begin, end] = first_copy_span(tmr_spec(c.workload, c.seed));
      spec.fault = exp::FaultPlan::transient_sm(
          0, begin, std::max<Cycle>(1, end - begin), 2);
      break;
    }
    case TmrFaultCase::Kind::kDroop: {
      // A chip-wide droop confined to the first copy's execution window:
      // SRRS serializes the copies, so only copy 0 is executing then.
      const auto [begin, end] = first_copy_span(tmr_spec(c.workload, c.seed));
      spec.fault = exp::FaultPlan::droop(
          begin, std::max<Cycle>(1, end - begin), 2);
      break;
    }
  }

  const exp::ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
  ASSERT_GT(r.corruptions, 0u)
      << r.label << ": the plan must actually corrupt something";
  EXPECT_EQ(r.n_copies, 3u);
  EXPECT_FALSE(r.dcls_match) << r.label << ": the fault must be detected";
  EXPECT_TRUE(r.majority_ok)
      << r.label << ": a single faulty copy must be out-voted";
  EXPECT_GE(r.faulty_copy, 0) << r.label;
  EXPECT_LT(r.faulty_copy, 3) << r.label;
  if (c.kind != TmrFaultCase::Kind::kPermanentSm)
    EXPECT_EQ(r.faulty_copy, 0)
        << r.label << ": the window targeted the first copy";
  EXPECT_TRUE(r.verified)
      << r.label << ": the vote must repair the host results";
  EXPECT_EQ(r.outcome, fault::Outcome::kDetected) << r.label;
  EXPECT_TRUE(r.passed()) << r.label;
}

std::vector<TmrFaultCase> tmr_cases() {
  std::vector<TmrFaultCase> cases;
  for (const char* w : {"hotspot", "nn", "pathfinder"})
    for (u64 seed : {2019ull, 7ull})
      for (auto kind :
           {TmrFaultCase::Kind::kDroop, TmrFaultCase::Kind::kTransientSm,
            TmrFaultCase::Kind::kPermanentSm}) {
        // A permanent SM fault is NOT a single-copy fault for hotspot: the
        // corruption each copy picks up on the broken SM spreads through
        // the next stencil step's neighbourhood reads, so a word can end up
        // wrong (differently) in two copies — a tie the vote rightly
        // refuses to correct. Single-pass workloads keep the guarantee.
        if (kind == TmrFaultCase::Kind::kPermanentSm &&
            std::string(w) == "hotspot")
          continue;
        cases.push_back({w, seed, kind});
      }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsSeedsAndFaults, TmrSingleCopyFaultProperty,
    ::testing::ValuesIn(tmr_cases()), [](const auto& info) {
      const char* kind =
          info.param.kind == TmrFaultCase::Kind::kDroop ? "droop"
          : info.param.kind == TmrFaultCase::Kind::kTransientSm ? "tsm"
                                                                : "psm";
      return info.param.workload + "_seed" + std::to_string(info.param.seed) +
             "_" + kind;
    });

// ---- 2. N = 1 / N = 2 bit-identical to the pre-refactor paths --------------

struct GoldenRow {
  const char* workload;
  Cycle dcls_cycles;
  NanoSec dcls_ns;
  Cycle base_cycles;
  NanoSec base_ns;
};

// Captured from the pre-refactor core::RedundantSession implementation
// (scale=test, seed=2019, SRRS, 6-SM GPU, default memory system) immediately
// before it was replaced by ExecSession. The unified session must reproduce
// these exactly: same allocations, transfers, launch hints, comparison
// charges, same simulated cycles.
constexpr GoldenRow kGolden[] = {
    {"hotspot", 12422, 458149, 6423, 394383},
    {"bfs", 109190, 1399801, 55189, 1087784},
    {"nn", 6722, 1004000, 3719, 943893},
    {"gaussian", 180187, 717059, 90187, 469215},
    {"pathfinder", 42517, 306404, 21518, 209318},
    {"myocyte", 12101, 3584073, 7550, 3542691},
};

class RefactorEquivalence : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(RefactorEquivalence, UnifiedSessionMatchesPreRefactorGoldens) {
  const GoldenRow g = GetParam();
  exp::ScenarioSpec spec;
  spec.workload = g.workload;
  spec.scale = workloads::Scale::kTest;
  spec.seed = 2019;
  spec.policy = sched::Policy::kSrrs;

  spec.redundancy = core::RedundancySpec::dcls();
  const exp::ScenarioResult dcls = exp::run_scenario(spec);
  ASSERT_TRUE(dcls.ok) << dcls.error;
  EXPECT_TRUE(dcls.verified && dcls.dcls_match) << g.workload;
  EXPECT_EQ(dcls.kernel_cycles, g.dcls_cycles) << g.workload << " (N=2)";
  EXPECT_EQ(dcls.elapsed_ns, g.dcls_ns) << g.workload << " (N=2)";

  spec.redundancy = core::RedundancySpec::baseline();
  const exp::ScenarioResult base = exp::run_scenario(spec);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_TRUE(base.verified) << g.workload;
  EXPECT_EQ(base.kernel_cycles, g.base_cycles) << g.workload << " (N=1)";
  EXPECT_EQ(base.elapsed_ns, g.base_ns) << g.workload << " (N=1)";
}

INSTANTIATE_TEST_SUITE_P(PinnedWorkloads, RefactorEquivalence,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.workload);
                         });

// ---- 3. The whole Fig. 5 suite passes at N = 1 / 2 / 3 through the
//         campaign runner (the acceptance gate of this API) ------------------

class WorkloadAtAllRedundancyLevels
    : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadAtAllRedundancyLevels, VerifiesThroughCampaignRunner) {
  exp::ScenarioSpec proto;
  proto.workload = GetParam();
  proto.scale = workloads::Scale::kTest;
  proto.seed = 2019;
  proto.policy = sched::Policy::kSrrs;
  // N = 3 with bitwise (unanimous) comparison as well as the voting TMR.
  core::RedundancySpec tmr_bitwise;
  tmr_bitwise.n_copies = 3;
  const exp::ScenarioSet set =
      exp::ScenarioSet::of(proto).sweep_redundancy(
          {core::RedundancySpec::baseline(), core::RedundancySpec::dcls(),
           core::RedundancySpec::tmr(), tmr_bitwise});
  exp::CampaignRunner::Config cfg;
  cfg.jobs = 3;
  const exp::CampaignResult campaign = exp::CampaignRunner(cfg).run(set);
  ASSERT_EQ(campaign.results.size(), 4u);
  for (const exp::ScenarioResult& r : campaign.results) {
    ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_TRUE(r.verified) << r.label;
    EXPECT_TRUE(r.dcls_match) << r.label;
    EXPECT_TRUE(r.passed()) << r.label;
  }
  EXPECT_EQ(campaign.results[0].n_copies, 1u);
  EXPECT_EQ(campaign.results[1].n_copies, 2u);
  EXPECT_EQ(campaign.results[2].n_copies, 3u);
  EXPECT_EQ(campaign.results[3].n_copies, 3u);
  EXPECT_TRUE(campaign.all_passed());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadAtAllRedundancyLevels,
                         ::testing::ValuesIn(workloads::all_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

}  // namespace
}  // namespace higpu
