// Scenario/Campaign API: spec validation, stable labels, sweep builders,
// report emission, and the core guarantee — a campaign's per-scenario
// results are bit-identical regardless of worker-thread count.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/jsonl.h"
#include "common/table.h"
#include "exp/campaign.h"
#include "exp/result_io.h"

namespace higpu::exp {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.workload = "hotspot";
  spec.scale = workloads::Scale::kTest;
  spec.seed = 2019;
  spec.policy = sched::Policy::kSrrs;
  return spec;
}

// ---- ScenarioSpec ----------------------------------------------------------

TEST(ScenarioSpec, DefaultsValidate) { base_spec().validate(); }

TEST(ScenarioSpec, UnknownWorkloadThrowsListingValidNames) {
  ScenarioSpec spec = base_spec();
  spec.workload = "no_such";
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hotspot"), std::string::npos) << msg;
  }
}

TEST(ScenarioSpec, RejectsDegenerateGpuAndSrrsStarts) {
  ScenarioSpec spec = base_spec();
  spec.gpu.num_sms = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = base_spec();
  spec.redundancy.srrs_starts = {2, 2};  // no spatial diversity
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = base_spec();
  spec.redundancy.srrs_starts = {99};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // Baseline mode doesn't care about SRRS starts.
  spec = base_spec();
  spec.redundancy = core::RedundancySpec::baseline();
  spec.redundancy.srrs_starts = {0};
  spec.validate();

  // Redundancy-spec errors surface through ScenarioSpec::validate too.
  spec = base_spec();
  spec.redundancy.n_copies = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.redundancy = core::RedundancySpec::nmr(2);  // vote needs >= 3 copies
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.redundancy.tolerance = 0.5f;  // tolerance without kTolerance
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsBadFaultPlans) {
  ScenarioSpec spec = base_spec();
  spec.fault = FaultPlan::droop(100, 0, 2);  // empty window
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.fault = FaultPlan::droop(100, 50, 32);  // bit out of range
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.fault = FaultPlan::permanent_sm(6, 0, 2);  // SM outside 6-SM GPU
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.fault = FaultPlan::scheduler(0, 6);  // identity mapping
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.fault = FaultPlan::droop(100, 50, 2);
  spec.validate();
}

TEST(ScenarioSpec, LabelIsStableAndDistinguishesAxes) {
  EXPECT_EQ(base_spec().label(), "hotspot:test:seed2019:srrs:red:nofault");

  ScenarioSpec faulted = base_spec();
  faulted.fault = FaultPlan::droop(2000, 50, 2);
  EXPECT_EQ(faulted.label(),
            "hotspot:test:seed2019:srrs:red:droop@2000w50b2");

  ScenarioSpec baseline = base_spec();
  baseline.redundancy = core::RedundancySpec::baseline();
  baseline.policy = sched::Policy::kDefault;
  EXPECT_EQ(baseline.label(), "hotspot:test:seed2019:default:base:nofault");

  // The N-copy grammar: copies + compare mode + recovery strategy.
  ScenarioSpec tmr = base_spec();
  tmr.redundancy = core::RedundancySpec::tmr();
  EXPECT_EQ(tmr.label(), "hotspot:test:seed2019:srrs:tmr-vote:nofault");
  tmr.redundancy = core::RedundancySpec::nmr(5);
  EXPECT_EQ(tmr.label(), "hotspot:test:seed2019:srrs:nmr5-vote:nofault");
  ScenarioSpec retry = base_spec();
  retry.redundancy = core::RedundancySpec::dcls_retry(3);
  EXPECT_EQ(retry.label(), "hotspot:test:seed2019:srrs:red-retry3:nofault");
  retry.redundancy.recovery = core::RedundancySpec::Recovery::kDegrade;
  EXPECT_EQ(retry.label(), "hotspot:test:seed2019:srrs:red-degrade:nofault");
}

// ---- ScenarioSet builders --------------------------------------------------

TEST(ScenarioSet, SweepsExpandCrossProductsRowMajor) {
  const ScenarioSet set =
      ScenarioSet::of(base_spec())
          .sweep_policies({sched::Policy::kDefault, sched::Policy::kHalf,
                           sched::Policy::kSrrs})
          .sweep_faults({FaultPlan::none(), FaultPlan::droop(2000, 50, 2)});
  ASSERT_EQ(set.size(), 6u);
  // Row-major: the last sweep varies fastest.
  EXPECT_EQ(set[0].policy, sched::Policy::kDefault);
  EXPECT_FALSE(set[0].fault.active());
  EXPECT_TRUE(set[1].fault.active());
  EXPECT_EQ(set[1].policy, sched::Policy::kDefault);
  EXPECT_EQ(set[5].policy, sched::Policy::kSrrs);
  EXPECT_TRUE(set[5].fault.active());

  std::set<std::string> labels;
  for (const ScenarioSpec& s : set) labels.insert(s.label());
  EXPECT_EQ(labels.size(), set.size()) << "labels must be unique per axis";
}

TEST(ScenarioSet, MemorySweepsGetDistinctStableLabels) {
  // The four write-policy combos: the default combo keeps the classic
  // label; every other combo appends its mem_label().
  const ScenarioSet set = ScenarioSet::of(base_spec()).sweep_write_policies();
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0].label(), "hotspot:test:seed2019:srrs:red:nofault");
  EXPECT_EQ(set[1].label(), "hotspot:test:seed2019:srrs:red:nofault:nwa");
  EXPECT_EQ(set[2].label(), "hotspot:test:seed2019:srrs:red:nofault:wt");
  EXPECT_EQ(set[3].label(), "hotspot:test:seed2019:srrs:red:nofault:wt-nwa");

  // Generic MemParams axis (e.g. a DRAM-geometry sweep from --mem-* flags).
  memsys::MemParams one_bank;
  one_bank.dram_banks_per_channel = 1;
  memsys::MemParams small_mshr;
  small_mshr.l1_mshr_entries = 4;
  const ScenarioSet mems =
      ScenarioSet::of(base_spec()).sweep_mem({one_bank, small_mshr});
  ASSERT_EQ(mems.size(), 2u);
  EXPECT_EQ(mems[0].label(), "hotspot:test:seed2019:srrs:red:nofault:dbk1");
  EXPECT_EQ(mems[1].label(), "hotspot:test:seed2019:srrs:red:nofault:mshr4");
  mems.validate_all();

  // Nonsensical memory geometry is rejected like any other spec error.
  ScenarioSpec bad = base_spec();
  bad.gpu.mem.l1_mshr_entries = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = base_spec();
  bad.gpu.mem.dram_row_bytes = 96;  // not a multiple of line_bytes
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(ScenarioSet, RedundancySweepExpandsTheUnifiedModes) {
  // The canonical N in {1,2,3} x compare x recovery expansion.
  const ScenarioSet set = ScenarioSet::of(base_spec()).sweep_redundancy();
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set[0].redundancy.n_copies, 1u);
  EXPECT_EQ(set[1].redundancy, core::RedundancySpec::dcls());
  EXPECT_EQ(set[2].redundancy.recovery,
            core::RedundancySpec::Recovery::kRetry);
  EXPECT_EQ(set[3].redundancy.n_copies, 3u);
  EXPECT_EQ(set[3].redundancy.compare,
            core::RedundancySpec::Compare::kMajorityVote);
  std::set<std::string> labels;
  for (const ScenarioSpec& s : set) labels.insert(s.label());
  EXPECT_EQ(labels.size(), set.size()) << "every mode must label distinctly";
  set.validate_all();

  // A custom axis sweeps any spec list.
  const ScenarioSet wide = ScenarioSet::of(base_spec())
                               .sweep_redundancy({core::RedundancySpec::nmr(4),
                                                  core::RedundancySpec::nmr(5)});
  ASSERT_EQ(wide.size(), 2u);
  EXPECT_EQ(wide[1].redundancy.n_copies, 5u);
}

TEST(ScenarioSet, ForWorkloadsAndGenericProduct) {
  const ScenarioSet set =
      ScenarioSet::for_workloads({"hotspot", "bfs", "nn"}, base_spec())
          .product({[](ScenarioSpec& s) { s.seed = 1; },
                    [](ScenarioSpec& s) { s.seed = 2; }});
  ASSERT_EQ(set.size(), 6u);
  EXPECT_EQ(set[0].workload, "hotspot");
  EXPECT_EQ(set[0].seed, 1u);
  EXPECT_EQ(set[5].workload, "nn");
  EXPECT_EQ(set[5].seed, 2u);
}

TEST(ScenarioSet, EmptySweepAxisThrows) {
  const ScenarioSet set = ScenarioSet::of(base_spec());
  EXPECT_THROW(set.product({}), std::invalid_argument);
  EXPECT_THROW(set.sweep_policies({}), std::invalid_argument);
  EXPECT_THROW(set.sweep_faults({}), std::invalid_argument);
}

TEST(ScenarioSet, ValidateAllNamesTheOffendingScenario) {
  ScenarioSet set = ScenarioSet::of(base_spec());
  ScenarioSpec bad = base_spec();
  bad.workload = "bogus";
  set.add(bad);
  try {
    set.validate_all();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario #1"), std::string::npos)
        << e.what();
  }
}

// ---- Campaign execution ----------------------------------------------------

/// The determinism fixture: >= 8 scenarios spanning all three policies,
/// redundancy modes and several fault plans (droop, broken SM, scheduler).
ScenarioSet determinism_set() {
  ScenarioSet swept =
      ScenarioSet::of(base_spec())
          .sweep_policies({sched::Policy::kDefault, sched::Policy::kHalf,
                           sched::Policy::kSrrs})
          .sweep_faults({FaultPlan::none(), FaultPlan::droop(2000, 120, 2),
                         FaultPlan::permanent_sm(2, 0, 20)});
  ScenarioSpec baseline = base_spec();
  baseline.redundancy = core::RedundancySpec::baseline();
  baseline.workload = "bfs";
  swept.add(baseline);
  ScenarioSpec sched_fault = base_spec();
  sched_fault.workload = "nn";
  sched_fault.fault = FaultPlan::scheduler(0, 3);
  swept.add(sched_fault);
  // The unified-session modes: fail-operational TMR voting and DCLS with
  // detect-and-retry, both under a fault so the vote/retry paths execute.
  ScenarioSpec tmr = base_spec();
  tmr.workload = "nn";
  tmr.redundancy = core::RedundancySpec::tmr();
  tmr.fault = FaultPlan::permanent_sm(1, 0, 20);
  swept.add(tmr);
  ScenarioSpec retry = base_spec();
  retry.redundancy = core::RedundancySpec::dcls_retry(1);
  retry.fault = FaultPlan::droop(2000, 120, 2);
  swept.add(retry);
  return swept;
}

TEST(CampaignRunner, ParallelResultsBitIdenticalToSerial) {
  const ScenarioSet set = determinism_set();
  ASSERT_GE(set.size(), 8u);

  CampaignRunner::Config serial_cfg;
  serial_cfg.jobs = 1;
  const CampaignResult serial = CampaignRunner(serial_cfg).run(set);

  CampaignRunner::Config parallel_cfg;
  parallel_cfg.jobs = 4;
  const CampaignResult parallel = CampaignRunner(parallel_cfg).run(set);

  ASSERT_EQ(serial.results.size(), set.size());
  ASSERT_EQ(parallel.results.size(), set.size());
  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(parallel.jobs, 4u);
  for (size_t i = 0; i < set.size(); ++i) {
    const ScenarioResult& a = serial.results[i];
    const ScenarioResult& b = parallel.results[i];
    ASSERT_TRUE(a.ok) << a.label << ": " << a.error;
    EXPECT_TRUE(a.deterministic_fields_equal(b))
        << "scenario " << i << " (" << a.label
        << ") differs between jobs=1 and jobs=4";
    // StatSet equality is part of deterministic_fields_equal; spot-check it
    // is not vacuous.
    EXPECT_GT(a.stats.get("instructions"), 0u) << a.label;
    EXPECT_EQ(a.stats.entries(), b.stats.entries()) << a.label;
  }
}

TEST(CampaignRunner, ResultsIndexedInSetOrderWithCallbacks) {
  const ScenarioSet set =
      ScenarioSet::of(base_spec())
          .sweep_policies({sched::Policy::kDefault, sched::Policy::kHalf,
                           sched::Policy::kSrrs})
          .sweep_redundancy();
  CampaignRunner::Config cfg;
  cfg.jobs = 3;
  u32 callbacks = 0;
  cfg.on_result = [&](const ScenarioResult&) { ++callbacks; };
  const CampaignResult campaign = CampaignRunner(cfg).run(set);
  EXPECT_EQ(callbacks, set.size());
  EXPECT_TRUE(campaign.all_passed());
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(campaign.results[i].index, i);
    EXPECT_EQ(campaign.results[i].label, set[i].label());
  }
}

TEST(CampaignRunner, FastForwardCallbacksSeeEveryForkIncludingLateOnes) {
  // Several groups across threads, each with windows that open long after
  // its clean run has drained: those members are copies of the group's
  // base result, handed to the on_result sink like any other.
  ScenarioSet set;
  for (const char* wl : {"hotspot", "nn", "pathfinder"}) {
    ScenarioSpec spec = base_spec();
    spec.workload = wl;
    set.append(ScenarioSet::of(spec).sweep_faults(
        {FaultPlan::none(), FaultPlan::droop(2000, 50, 2),
         FaultPlan::droop(1u << 30, 50, 3),
         FaultPlan::scheduler(1u << 30, 1)}));
  }
  CampaignRunner::Config serial_cfg;
  serial_cfg.jobs = 1;
  const CampaignResult serial = CampaignRunner(serial_cfg).run(set);

  CampaignRunner::Config ff_cfg;
  ff_cfg.jobs = 3;
  ff_cfg.snapshot_fast_forward = true;
  std::multiset<std::string> seen;
  ff_cfg.on_result = [&](const ScenarioResult& r) { seen.insert(r.label); };
  const CampaignResult ff = CampaignRunner(ff_cfg).run(set);
  ASSERT_EQ(set.size(), seen.size());
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(1u, seen.count(set[i].label())) << set[i].label();
    EXPECT_EQ(i, ff.results[i].index);
    EXPECT_TRUE(serial.results[i].deterministic_fields_equal(ff.results[i]))
        << set[i].label();
  }
}

TEST(CampaignRunner, ScenarioFailureIsReportedNotThrown) {
  // A valid spec whose run explodes is impossible to build via validate(),
  // so check the validation path throws before any execution instead.
  ScenarioSet set = ScenarioSet::of(base_spec());
  ScenarioSpec bad = base_spec();
  bad.workload = "nope";
  set.add(bad);
  EXPECT_THROW(CampaignRunner().run(set), std::invalid_argument);

  // run_scenario itself reports rather than throws.
  const ScenarioResult r = run_scenario(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.passed());
  EXPECT_NE(r.error.find("nope"), std::string::npos);
}

TEST(CampaignRunner, FaultOutcomesClassified) {
  // A broken SM under SRRS must be a detected fault, campaign-level.
  ScenarioSpec spec = base_spec();
  spec.fault = FaultPlan::permanent_sm(2, 0, 20);
  const ScenarioResult r = run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.fault_active);
  EXPECT_GT(r.corruptions, 0u);
  EXPECT_EQ(r.outcome, fault::Outcome::kDetected);
  EXPECT_TRUE(r.passed()) << "a detected fault is a safety-mechanism PASS";
}

// ---- Report emission -------------------------------------------------------

TEST(CampaignReport, JsonAndCsvCarryTheCampaign) {
  const ScenarioSet set =
      ScenarioSet::of(base_spec())
          .sweep_faults({FaultPlan::none(), FaultPlan::permanent_sm(2, 0, 20)});
  const CampaignResult campaign = CampaignRunner().run(set);

  const std::string json = campaign.to_json();
  EXPECT_NE(json.find("\"schema\": \"higpu.campaign/2\""), std::string::npos);
  EXPECT_NE(json.find("\"scenarios\": 2"), std::string::npos);
  EXPECT_NE(json.find("hotspot:test:seed2019:srrs:red:nofault"),
            std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"detected\""), std::string::npos);
  EXPECT_NE(json.find("\"instructions\""), std::string::npos);
  EXPECT_NE(json.find("\"same_sm_time_overlap\""), std::string::npos);

  const std::string csv = campaign.to_csv();
  EXPECT_NE(csv.find("index,label,workload"), std::string::npos);
  EXPECT_NE(csv.find("psm2@0b20"), std::string::npos);
  // Two data rows + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(CampaignReport, ReportsCarryEveryRecordField) {
  const ScenarioSet set =
      ScenarioSet::of(base_spec())
          .sweep_faults({FaultPlan::none(), FaultPlan::permanent_sm(2, 0, 20)});
  const CampaignResult campaign = CampaignRunner().run(set);

  // Each JSON result holds exactly its JSONL record's keys, then `passed`.
  const JsonValue report = parse_json(campaign.to_json());
  const std::vector<JsonValue>& results = report.at("results").array;
  ASSERT_EQ(campaign.results.size(), results.size());
  const auto keys = [](const JsonValue& object) {
    std::vector<std::string> out;
    for (const auto& [key, value] : object.object) out.push_back(key);
    return out;
  };
  for (size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> want =
        keys(parse_json(result_to_jsonl(campaign.results[i])));
    want.push_back("passed");
    EXPECT_EQ(want, keys(results[i])) << "result " << i;
  }

  // The CSV has a column for every deterministic scalar field (nested ones
  // as "diversity.<field>"), one per counter any row has, and `passed`.
  const std::string csv = campaign.to_csv();
  std::set<std::string> header;
  std::istringstream line(csv.substr(0, csv.find('\n')));
  for (std::string col; std::getline(line, col, ',');) header.insert(col);
  std::vector<std::string> want = {"passed"};
  const auto walk = [&](const auto& self, const auto& rec,
                        const std::string& prefix) -> void {
    visit_fields(rec, [&](const char* name, const auto& f,
                          FieldTag tag = FieldTag::kNone) {
      using F = std::remove_cvref_t<decltype(f)>;
      if (tag == FieldTag::kNotDeterministic) return;
      if constexpr (FieldRecord<F>)
        self(self, f, prefix + name + ".");
      else if constexpr (std::is_arithmetic_v<F> || std::is_enum_v<F> ||
                         std::is_same_v<F, std::string>)
        want.push_back(prefix + name);
    });
  };
  walk(walk, campaign.results.front(), "");
  for (const ScenarioResult& r : campaign.results)
    for (const auto& [name, value] : r.stats.entries())
      want.push_back("stats." + name);
  for (const std::string& col : want)
    EXPECT_TRUE(header.count(col)) << "CSV lacks column " << col;
}

TEST(CampaignReport, CsvEscapingAndJsonEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace higpu::exp
