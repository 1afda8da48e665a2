// Every workload must produce correct results (vs its CPU reference) in
// baseline mode and under each redundancy policy, with matching redundant
// outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "exp/campaign.h"
#include "workloads/workload.h"

namespace higpu::workloads {
namespace {

exp::ScenarioSpec spec_for(const std::string& name, sched::Policy policy,
                           bool redundant, u64 seed) {
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.scale = Scale::kTest;
  spec.seed = seed;
  spec.policy = policy;
  spec.redundancy = redundant ? core::RedundancySpec::dcls()
                               : core::RedundancySpec::baseline();
  return spec;
}

class WorkloadCorrectness
    : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadCorrectness, BaselineMatchesCpuReference) {
  const exp::ScenarioResult r = exp::run_scenario(
      spec_for(GetParam(), sched::Policy::kDefault, false, /*seed=*/1234));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified) << GetParam() << " baseline output wrong";
}

TEST_P(WorkloadCorrectness, SrrsRedundantPairMatches) {
  const exp::ScenarioResult r = exp::run_scenario(
      spec_for(GetParam(), sched::Policy::kSrrs, true, /*seed=*/99));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified) << GetParam() << " output wrong under SRRS";
  EXPECT_TRUE(r.dcls_match)
      << GetParam() << " redundant copies diverged under SRRS";
  EXPECT_GT(r.comparisons, 0u);
}

TEST_P(WorkloadCorrectness, HalfRedundantPairMatches) {
  const exp::ScenarioResult r = exp::run_scenario(
      spec_for(GetParam(), sched::Policy::kHalf, true, /*seed=*/7));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified) << GetParam() << " output wrong under HALF";
  EXPECT_TRUE(r.dcls_match)
      << GetParam() << " redundant copies diverged under HALF";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCorrectness,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           // gtest names must be alphanumeric ("b+tree").
                           std::string name = info.param;
                           for (char& c : name)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

TEST(WorkloadRegistry, Fig4SubsetIsImplemented) {
  const auto names = all_names();
  for (const std::string& n : fig4_names())
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
  EXPECT_EQ(fig4_names().size(), 11u);  // the paper's simulated subset
}

TEST(WorkloadRegistry, FullSuiteIncludesCotsOnlyBenchmarks) {
  const auto names = all_names();
  EXPECT_EQ(names.size(), 19u);
  for (const char* extra :
       {"cfd", "streamcluster", "kmeans", "pathfinder", "srad", "lavaMD",
        "particlefilter", "b+tree"})
    EXPECT_NE(std::find(names.begin(), names.end(), extra), names.end());
}

TEST(WorkloadRegistry, UnknownNameThrowsListingValidNames) {
  try {
    make("no_such_workload");
    FAIL() << "make() must throw for unknown names";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_workload"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hotspot"), std::string::npos)
        << "message must list the valid names: " << msg;
  }
  EXPECT_TRUE(is_known("hotspot"));
  EXPECT_FALSE(is_known("no_such_workload"));
}

TEST(WorkloadRegistry, ScaleNamesRoundTrip) {
  EXPECT_EQ(parse_scale("test"), Scale::kTest);
  EXPECT_EQ(parse_scale("bench"), Scale::kBench);
  EXPECT_STREQ(scale_name(Scale::kTest), "test");
  EXPECT_STREQ(scale_name(Scale::kBench), "bench");
  EXPECT_THROW(parse_scale("huge"), std::invalid_argument);
}

TEST(WorkloadHelpers, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0f, 1.0f));
  EXPECT_TRUE(approx_equal(1000.0f, 1000.5f, 1e-3f));
  EXPECT_FALSE(approx_equal(1.0f, 1.1f, 1e-3f));
  EXPECT_FALSE(approx_equal(std::nanf(""), 1.0f));
  EXPECT_FALSE(approx_equal({1.0f, 2.0f}, {1.0f}));
  EXPECT_TRUE(approx_equal({1.0f, 2.0f}, {1.0f, 2.0f}));
}

TEST(WorkloadHelpers, BitCastRoundTrip) {
  const std::vector<float> f = {1.5f, -2.25f, 0.0f};
  EXPECT_EQ(from_bits(to_bits(f)), f);
}

TEST(WorkloadDeterminism, SameSeedSameResults) {
  auto run_once = [] {
    const exp::ScenarioResult r = exp::run_scenario(
        spec_for("hotspot", sched::Policy::kSrrs, false, /*seed=*/42));
    return std::make_pair(r.elapsed_ns, r.kernel_cycles);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(WorkloadMetadata, SetupKeepsTheRegisteredName) {
  for (const std::string& n : all_names()) {
    WorkloadPtr w = make(n);
    w->setup(Scale::kTest, 1);
    EXPECT_EQ(w->name(), n);
  }
}

}  // namespace
}  // namespace higpu::workloads
