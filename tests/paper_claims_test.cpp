// The paper's results as checked claims: Fig. 3 (kernel categories and the
// §IV.D policy recommendation), Fig. 4 (redundant kernel cycles under
// Default / HALF / SRRS), Fig. 5 (end-to-end COTS overhead) and the §IV.C
// fault-coverage argument. Each test prints the table it checks, so running
// ./build/paper_claims_test reproduces the figures. Claims are asserted in
// the paper's qualitative terms with margins, never as exact cycle counts;
// where the model deviates from the paper (README "Deviations from the
// paper") nothing is asserted. Bench scale, labelled "stress" in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/categorize.h"
#include "core/diversity.h"
#include "core/exec.h"
#include "exp/campaign.h"
#include "fault/injector.h"
#include "isa/builder.h"
#include "safety/asil.h"

namespace higpu {
namespace {

using exp::CampaignResult;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;
using sched::Policy;

ScenarioSpec bench_spec() {
  ScenarioSpec spec;
  spec.scale = workloads::Scale::kBench;
  spec.seed = 2019;
  return spec;
}

/// Run `set` on every hardware thread and require every scenario to run.
CampaignResult run_all(const ScenarioSet& set) {
  exp::CampaignRunner::Config cfg;
  cfg.jobs = 0;
  CampaignResult c = exp::CampaignRunner(cfg).run(set);
  for (const ScenarioResult& r : c.results)
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
  return c;
}

// ---- Fig. 3: kernel categories ---------------------------------------------

TEST(PaperClaims, Fig3KernelCategoriesRunForEveryWorkload) {
  TextTable table({"benchmark", "kernels", "dominant-kernel", "cycles",
                   "blocks/SM", "gpu-fill", "category", "recommend"});
  for (const std::string& name : workloads::all_names()) {
    // Baseline (non-redundant) run: every kernel executes in isolation
    // (single stream), so per-kernel cycle spans are isolated durations.
    // The categorization needs the live device, so it runs as a probe.
    ScenarioSpec spec = bench_spec();
    spec.workload = name;
    spec.policy = Policy::kDefault;
    spec.redundancy = core::RedundancySpec::baseline();
    const ScenarioResult res = exp::run_scenario(
        spec, 0, [&](runtime::Device& dev, workloads::Workload&,
                     core::ExecSession&) {
          // Aggregate per distinct kernel name; categorize the dominant one
          // (the kernel contributing the most total cycles).
          struct Agg {
            Cycle total = 0;
            Cycle longest = 0;
            u32 launch_id = 0;
            u32 launches = 0;
          };
          std::map<std::string, Agg> by_kernel;
          sim::Gpu& gpu = dev.gpu();
          for (sim::KernelState* ks : gpu.kernel_states()) {
            const sim::KernelLaunch& l = gpu.launch_of(ks->launch_id);
            const Cycle cycles = gpu.kernel_cycles(ks->launch_id);
            Agg& a = by_kernel[l.program->name()];
            a.total += cycles;
            a.launches += 1;
            if (cycles > a.longest) {
              a.longest = cycles;
              a.launch_id = ks->launch_id;
            }
          }
          const Agg* dominant = nullptr;
          std::string dominant_name;
          u32 total_launches = 0;
          for (const auto& [kname, agg] : by_kernel) {
            total_launches += agg.launches;
            if (dominant == nullptr || agg.total > dominant->total) {
              dominant = &agg;
              dominant_name = kname;
            }
          }
          ASSERT_NE(dominant, nullptr);
          const core::CategoryReport rep = core::categorize_kernel(
              gpu.params(), gpu.launch_of(dominant->launch_id),
              dominant->longest);
          table.add_row(
              {name, std::to_string(total_launches), dominant_name,
               std::to_string(rep.isolated_cycles),
               std::to_string(rep.max_blocks_per_sm),
               TextTable::fmt(rep.gpu_fill, 2),
               core::category_name(rep.category),
               sched::policy_name(core::recommend_policy(rep.category))});
        });
    EXPECT_TRUE(res.ok) << name << ": " << res.error;
    EXPECT_TRUE(res.verified) << name;
  }
  std::printf("Fig. 3: kernel categories and recommended policy (IV.D)\n%s\n",
              table.render().c_str());
}

// ---- Fig. 4: redundant kernel cycles per policy ----------------------------

TEST(PaperClaims, Fig4SrrsIsDiverseAndCostsAtMostAboutTwiceDefault) {
  const std::vector<Policy> policies = {Policy::kDefault, Policy::kHalf,
                                        Policy::kSrrs};
  ScenarioSpec proto = bench_spec();
  proto.redundancy = core::RedundancySpec::dcls();
  const std::vector<std::string> names = workloads::fig4_names();
  const CampaignResult c = run_all(
      ScenarioSet::for_workloads(names, proto).sweep_policies(policies));
  ASSERT_EQ(c.results.size(), names.size() * policies.size());

  TextTable table({"benchmark", "default(cycles)", "HALF", "SRRS",
                   "verified", "diverse(SRRS)"});
  std::map<std::string, std::pair<double, double>> half_srrs;
  for (size_t w = 0; w < names.size(); ++w) {
    const ScenarioResult* run = &c.results[w * policies.size()];
    const ScenarioResult& def = run[0];
    const ScenarioResult& half = run[1];
    const ScenarioResult& srrs = run[2];
    ASSERT_EQ(names[w], srrs.workload);
    bool all_ok = true;
    for (size_t p = 0; p < policies.size(); ++p) {
      EXPECT_TRUE(run[p].verified) << run[p].label;
      EXPECT_TRUE(run[p].dcls_match) << run[p].label;
      all_ok = all_ok && run[p].verified && run[p].dcls_match;
    }
    const bool diverse = srrs.diversity.spatially_diverse() &&
                         srrs.diversity.temporally_disjoint();
    EXPECT_TRUE(diverse) << srrs.label;

    const double base = static_cast<double>(def.kernel_cycles);
    const double r_half = static_cast<double>(half.kernel_cycles) / base;
    const double r_srrs = static_cast<double>(srrs.kernel_cycles) / base;
    half_srrs[names[w]] = {r_half, r_srrs};
    table.add_row({names[w], std::to_string(def.kernel_cycles),
                   TextTable::fmt_ratio(r_half), TextTable::fmt_ratio(r_srrs),
                   all_ok ? "yes" : "NO", diverse ? "yes" : "NO"});
  }
  std::printf("Fig. 4: redundant kernel cycles, normalized to the default "
              "scheduler (6 SMs)\n%s\n",
              table.render().c_str());

  // Myocyte is SRRS's worst case, at about twice the default's cycles: its
  // one kernel fills a sliver of the GPU, so Default and HALF run the two
  // copies side by side while SRRS serializes them.
  const auto worst = std::max_element(
      half_srrs.begin(), half_srrs.end(), [](const auto& a, const auto& b) {
        return a.second.second < b.second.second;
      });
  EXPECT_EQ("myocyte", worst->first);
  EXPECT_GT(half_srrs["myocyte"].second, 1.8);
  EXPECT_LT(half_srrs["myocyte"].second, 2.1);

  // The very short kernels of bfs and backprop prefer SRRS: it costs no
  // more than HALF there.
  for (const char* name : {"bfs", "backprop"}) {
    const auto [r_half, r_srrs] = half_srrs[name];
    EXPECT_LE(r_srrs, r_half) << name;
  }
}

// ---- Fig. 5: end-to-end overhead on the COTS platform ----------------------

TEST(PaperClaims, Fig5OnlyKernelDominatedWorkloadsPayForRedundancy) {
  const ScenarioSpec proto = bench_spec();
  const std::vector<std::string> names = workloads::all_names();
  // Baseline default vs the redundant pair serialized by SRRS (the paper
  // mimics SRRS with cudaDeviceSynchronize()).
  const CampaignResult c = run_all(
      ScenarioSet::for_workloads(names, proto)
          .product({[](ScenarioSpec& s) {
                      s.policy = Policy::kDefault;
                      s.redundancy = core::RedundancySpec::baseline();
                    },
                    [](ScenarioSpec& s) {
                      s.policy = Policy::kSrrs;
                      s.redundancy = core::RedundancySpec::dcls();
                    }}));
  ASSERT_EQ(c.results.size(), names.size() * 2);

  TextTable table({"benchmark", "baseline(ms)", "redundant(ms)", "ratio",
                   "kernel-share", "verified"});
  std::set<std::string> costly;
  std::vector<std::pair<double, std::string>> shares;
  for (size_t w = 0; w < names.size(); ++w) {
    const ScenarioResult& base = c.results[2 * w];
    const ScenarioResult& red = c.results[2 * w + 1];
    ASSERT_EQ(names[w], red.workload);
    EXPECT_TRUE(base.verified) << base.label;
    EXPECT_TRUE(red.verified && red.dcls_match) << red.label;
    const double base_ns = static_cast<double>(base.elapsed_ns);
    const double r = static_cast<double>(red.elapsed_ns) / base_ns;
    if (r > 1.15) costly.insert(names[w]);
    // Fraction of baseline time spent in kernel execution: what decides
    // which workloads suffer from redundancy.
    const double kernel_ns =
        static_cast<double>(base.kernel_cycles) / proto.gpu.clock_ghz;
    const double share = kernel_ns / base_ns;
    shares.push_back({share, names[w]});
    table.add_row({names[w], TextTable::fmt(base_ns / 1e6, 3),
                   TextTable::fmt(static_cast<double>(red.elapsed_ns) / 1e6, 3),
                   TextTable::fmt_ratio(r), TextTable::fmt(share, 2),
                   base.verified && red.verified && red.dcls_match ? "yes"
                                                                   : "NO"});
  }
  std::printf("Fig. 5: end-to-end time (ms), baseline vs redundant "
              "serialized (SRRS)\n%s\n",
              table.render().c_str());

  // Overhead is negligible except for cfd and streamcluster, whose time is
  // dominated by kernel execution.
  EXPECT_EQ((std::set<std::string>{"cfd", "streamcluster"}), costly);
  std::sort(shares.rbegin(), shares.rend());
  ASSERT_GE(shares.size(), 2u);
  EXPECT_EQ(costly, (std::set<std::string>{shares[0].second, shares[1].second}));
}

// ---- §IV.C: fault coverage per policy --------------------------------------

/// Dense, all-live kernel (every datapath result reaches the output):
/// out[gid] = chain of FFMAs seeded by gid.
isa::ProgramPtr make_campaign_kernel() {
  using namespace isa;
  KernelBuilder kb("campaign");
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg acc = kb.reg(), f = kb.reg();
  kb.i2f(f, gid);
  kb.ffma(acc, f, fimm(0.001f), fimm(1.0f));
  for (int i = 0; i < 120; ++i)
    kb.ffma(acc, acc, fimm(1.0000011f), fimm(0.125f));
  Reg addr = kb.reg();
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

struct RunOutput {
  std::vector<u8> bits_a;
  bool copies_match = true;
  Cycle span_begin = 0, span_end = 0;
};

constexpr u32 kBlocks = 12;
constexpr u32 kThreads = kBlocks * 128;

RunOutput run_campaign(Policy policy, fault::FaultInjector* fi) {
  runtime::Device dev;
  if (fi != nullptr) dev.gpu().set_fault_hook(fi);
  core::ExecSession::Config cfg;
  cfg.policy = policy;
  core::ExecSession s(dev, cfg);
  const core::ReplicaPtr out = s.alloc(kThreads * 4);
  s.launch(make_campaign_kernel(), sim::Dim3{kBlocks, 1, 1},
           sim::Dim3{128, 1, 1}, {out, kThreads});
  s.sync();

  RunOutput r;
  r.copies_match = s.compare(out, kThreads * 4).unanimous;
  r.bits_a.resize(kThreads * 4);
  dev.gpu().store().read_block(r.bits_a.data(), out.primary(), kThreads * 4);
  r.span_begin = ~Cycle{0};
  for (const sim::BlockRecord& rec : dev.gpu().block_records()) {
    r.span_begin = std::min(r.span_begin, rec.dispatch_cycle);
    r.span_end = std::max(r.span_end, rec.end_cycle);
  }
  return r;
}

/// Classify one faulted run against the golden one; a fault that corrupted
/// nothing (it hit an idle phase) is masked.
void tally_run(Policy policy, const RunOutput& golden,
               fault::FaultInjector& fi, fault::CampaignTally& tally) {
  const RunOutput r = run_campaign(policy, &fi);
  tally.count(fi.corruptions() == 0
                  ? fault::Outcome::kMasked
                  : fault::classify(r.copies_match, r.bits_a == golden.bits_a));
}

/// 40 chip-wide 50-cycle droops spread over the pair's execution.
void droop_sweep(Policy policy, const RunOutput& golden,
                 fault::CampaignTally& tally) {
  const Cycle span = golden.span_end - golden.span_begin;
  constexpr u32 kInjections = 40;
  constexpr Cycle kWidth = 50;
  for (u32 i = 0; i < kInjections; ++i) {
    fault::FaultInjector fi;
    fi.arm_droop(golden.span_begin + span * i / kInjections, kWidth, 2);
    tally_run(policy, golden, fi, tally);
  }
}

/// One permanently broken SM at a time.
void permanent_sweep(Policy policy, const RunOutput& golden,
                     fault::CampaignTally& tally) {
  for (u32 sm = 0; sm < 6; ++sm) {
    fault::FaultInjector fi;
    fi.arm_permanent_sm(sm, 0, 2);
    tally_run(policy, golden, fi, tally);
  }
}

/// Instruction-level slack between the copies at 50-cycle droop width, and
/// whether a window exists that corrupts both copies identically.
core::InstrTraceCollector::SlackReport slack_for(Policy policy,
                                                 bool* window_exists) {
  runtime::Device dev;
  core::InstrTraceCollector tc;
  dev.gpu().set_trace_sink(&tc);
  core::ExecSession::Config cfg;
  cfg.policy = policy;
  core::ExecSession s(dev, cfg);
  const core::ReplicaPtr out = s.alloc(kThreads * 4);
  s.launch(make_campaign_kernel(), sim::Dim3{kBlocks, 1, 1},
           sim::Dim3{128, 1, 1}, {out, kThreads});
  s.sync();
  const auto [ida, idb] = s.pairs()[0];
  *window_exists =
      tc.find_identical_corruption_window(ida, idb, 50).has_value();
  return tc.slack(ida, idb, 50);
}

TEST(PaperClaims, SectionIVCOnlyDiversePoliciesEarnAsilD) {
  TextTable table({"policy", "faults", "masked", "detected", "SDC",
                   "diag-coverage", "min-slack(cyc)", "exposed@50",
                   "ccf-window", "claimable"});
  for (Policy policy : {Policy::kDefault, Policy::kHalf, Policy::kSrrs}) {
    SCOPED_TRACE(sched::policy_name(policy));
    const RunOutput golden = run_campaign(policy, nullptr);
    fault::CampaignTally tally;
    droop_sweep(policy, golden, tally);
    permanent_sweep(policy, golden, tally);
    bool window_exists = false;
    const auto slack = slack_for(policy, &window_exists);

    // A mechanism with SDCs cannot claim ASIL-D decomposition credit.
    const double dc = tally.diagnostic_coverage();
    const safety::Asil claim =
        (tally.sdc == 0 && dc >= 0.99)
            ? safety::composed_asil(safety::Asil::kB, safety::Asil::kB, true)
            : safety::Asil::kB;
    table.add_row({sched::policy_name(policy), std::to_string(tally.total()),
                   std::to_string(tally.masked),
                   std::to_string(tally.detected), std::to_string(tally.sdc),
                   TextTable::fmt(dc, 3), std::to_string(slack.min_slack),
                   std::to_string(slack.exposed),
                   window_exists ? "EXISTS" : "none",
                   safety::asil_name(claim)});

    EXPECT_EQ(46u, tally.total());
    EXPECT_FALSE(window_exists);
    if (policy == Policy::kDefault) {
      // The default scheduler may co-locate the copies: a permanent SM
      // defect corrupts both alike and escapes the comparison.
      EXPECT_GT(tally.sdc, 0u);
      EXPECT_NE(safety::Asil::kD, claim);
    } else {
      EXPECT_EQ(0u, tally.sdc);
      EXPECT_EQ(1.0, dc);
      EXPECT_EQ(safety::Asil::kD, claim);
    }
  }
  std::printf("IV.C: 50-cycle chip-wide droops + permanent SM defects, per "
              "policy\n%s\n",
              table.render().c_str());
}

}  // namespace
}  // namespace higpu
