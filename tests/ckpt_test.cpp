// Checkpoint/restore subsystem tests.
//
// The load-bearing guarantee: a run resumed from a snapshot is bit-identical
// to a run that was never interrupted — results, cycle counts, statistics,
// the modelled timeline — under both simulation engines, for every workload,
// with or without an armed fault (including snapshots taken mid fault
// window). On top of that: rollback recovery beats re-execution on response
// time, snapshot hash diffing localizes fault divergence, campaign
// fast-forward returns bit-identical ScenarioResults, and the ScenarioSet
// sweep builders reject empty bases loudly. The copy-on-write store pages,
// the shared launch and block-record history images, the section hash and
// the decoder's length checks are pinned here too, so the sanitizer jobs
// that run this suite cover them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/wire.h"
#include "common/rng.h"
#include "exp/campaign.h"
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

// The sanitizer CI jobs leave this case out: cfd's droop writes through
// wild addresses that grow the dense global store, and the run peaks at
// about 8 GiB RSS, more than sanitizer shadow memory leaves room for on a
// CI runner. The case above keeps two workloads under the sanitizers.
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
  EXPECT_NE(a->store_pages[p / ckpt::kStorePageBytes],
            b->store_pages[p / ckpt::kStorePageBytes]);
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
  for (size_t i = 0; i < a->store_pages.size(); ++i)
    EXPECT_EQ(a->store_pages[i], b->store_pages[i]) << "page " << i;
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
  // 256 + 5000 bytes: one full page and a partial last page.
  const memsys::DevPtr p = dev.malloc(5000);
  std::vector<u8> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  dev.memcpy_h2d(p, data.data(), data.size());
  const u64 size_a = p + 5000;
  const ckpt::SnapshotPtr a = dev.snapshot();
  ASSERT_EQ(a->store_pages.size(), 2u);
  EXPECT_LT(a->store_pages.back()->bytes.size(), ckpt::kStorePageBytes);
  const std::vector<u8> bytes_a = store_bytes(dev, size_a);

  // A write straddling the page boundary, then growth of the last page.
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
  auto page = std::make_shared<ckpt::Image>(*bad.store_pages[1]);
  page->bytes[17] ^= 0xFF;
  bad.store_pages[1] = page;
  try {
    (void)ckpt::decode_snapshot(ckpt::encode_snapshot(bad));
    FAIL() << "a corrupt store page decoded";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("store page @0x1000"),
              std::string::npos)
        << e.what();
  }
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
  for (int i = 0; i < 5; ++i) w.put64(0);  // capture metadata
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
                   w.put64(kHugeLength);
                   w.put64(0);  // ...and its hash
                 }),
                 "store page 0");
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
                 "program code");
}

TEST(CkptDecodeLengths, ReaderVectors) {
  ckpt::Writer w;
  w.put64(kHugeLength);
  const std::vector<u8> bytes = w.take_blob();
  const std::vector<ckpt::Section> no_sections;
  {
    ckpt::Reader r(bytes, no_sections);
    EXPECT_THROW((void)r.get_u32_vec(), ckpt::SnapshotError);
  }
  {
    ckpt::Reader r(bytes, no_sections);
    EXPECT_THROW((void)r.get_u64_vec(), ckpt::SnapshotError);
  }
  {
    ckpt::Reader r(bytes, no_sections);
    EXPECT_THROW((void)r.get_string(), ckpt::SnapshotError);
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
