// Dual-engine equivalence: the event-driven engine (active-SM set +
// quiescent-cycle fast-forward) must be bit-identical to the dense tick
// loop — same final memory state, same per-kernel cycle counts, same block
// records and same aggregated statistics — across every workload, policy,
// stream mix and fault scenario. This is the guard that lets the event
// engine be the default.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/exec.h"
#include "fault/injector.h"
#include "memsys/global_store.h"
#include "sched/policies.h"
#include "sim/gpu.h"
#include "tests/test_kernels.h"
#include "exp/campaign.h"
#include "workloads/workload.h"

namespace higpu {
namespace {

void expect_same_stats(const StatSet& dense, const StatSet& event,
                       const std::string& what) {
  const auto de = dense.entries();
  const auto ee = event.entries();
  ASSERT_EQ(de.size(), ee.size()) << what << ": stat-set shape differs";
  for (size_t i = 0; i < de.size(); ++i) {
    EXPECT_EQ(de[i].first, ee[i].first) << what << ": stat name differs";
    EXPECT_EQ(de[i].second, ee[i].second)
        << what << ": counter '" << de[i].first << "' differs";
  }
}

void expect_same_records(const std::vector<sim::BlockRecord>& d,
                         const std::vector<sim::BlockRecord>& e,
                         const std::string& what) {
  ASSERT_EQ(d.size(), e.size()) << what << ": block-record count differs";
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i].launch_id, e[i].launch_id) << what << " record " << i;
    EXPECT_EQ(d[i].block_linear, e[i].block_linear) << what << " record " << i;
    EXPECT_EQ(d[i].sm, e[i].sm) << what << " record " << i;
    EXPECT_EQ(d[i].intended_sm, e[i].intended_sm) << what << " record " << i;
    EXPECT_EQ(d[i].dispatch_cycle, e[i].dispatch_cycle) << what << " record " << i;
    EXPECT_EQ(d[i].end_cycle, e[i].end_cycle) << what << " record " << i;
  }
}

}  // namespace
}  // namespace higpu

namespace higpu::sim {
namespace {

using testing::make_launch;
using testing::make_spin_kernel;
using testing::make_store_kernel;

GpuParams engine_params(SimEngine e) {
  GpuParams p;
  p.engine = e;
  return p;
}

// ---- GPU-level equivalence over controlled kernel mixes --------------------

/// A load-reduce kernel: each thread gathers `reps` strided words from `in`
/// and accumulates them into out[gid]. Memory-bound: warps spend most cycles
/// stalled on DRAM responses, the event engine's best case.
isa::ProgramPtr make_gather_kernel(u32 reps, const std::string& name = "gather") {
  using namespace isa;
  KernelBuilder kb(name);
  Reg in = kb.reg(), out = kb.reg(), n = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(out, 1);
  kb.ldp(n, 2);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);

  Reg acc = kb.reg(), k = kb.reg(), addr = kb.reg(), v = kb.reg();
  kb.movi(acc, 0);
  kb.movi(k, 0);
  Label loop = kb.label(), end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, k, imm(static_cast<i32>(reps)));
  kb.bra(end).guard_if(fin);
  // Stride by 97 lines so consecutive iterations miss in L1/L2.
  kb.imad(addr, k, imm(97 * 128), gid);
  kb.and_(addr, addr, imm(0x3FFFF));
  kb.imad(addr, addr, imm(4), in);
  kb.ldg(v, addr);
  kb.iadd(acc, acc, v);
  kb.iadd(k, k, imm(1));
  kb.bra(loop);
  kb.bind(end);
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

struct RunArtifacts {
  Cycle final_cycle = 0;
  std::vector<Cycle> kernel_cycles;
  StatSet stats;
  std::vector<BlockRecord> records;
  std::vector<u32> memory;
};

/// Run one multi-kernel, multi-stream scenario under `engine` and capture
/// everything the equivalence contract covers.
RunArtifacts run_scenario(SimEngine engine, sched::Policy policy) {
  GpuParams params = engine_params(engine);
  memsys::GlobalStore store;
  Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(sched::make_scheduler(policy));

  const memsys::DevPtr in = store.alloc(256 * 1024);
  for (u32 i = 0; i < 64 * 1024; ++i) store.write32(in + i * 4, i * 2654435761u);

  struct Shape {
    u32 threads, block, stream;
  };
  const Shape shapes[] = {
      {1024, 128, 0}, {768, 64, 1}, {2048, 256, 0}, {512, 32, 2}, {1536, 128, 1}};
  std::vector<memsys::DevPtr> outs;
  std::vector<u32> ids;
  std::vector<u32> out_words;
  u32 k = 0;
  for (const Shape& s : shapes) {
    const memsys::DevPtr out = store.alloc(s.threads * 4);
    KernelLaunch l =
        (k % 2 == 0)
            ? make_launch(make_gather_kernel(6 + k, "g" + std::to_string(k)),
                          s.threads, s.block, {in, out, s.threads})
            : make_launch(make_spin_kernel(20 + 7 * k, "s" + std::to_string(k)),
                          s.threads, s.block, {out, s.threads});
    l.stream = s.stream;
    if (policy == sched::Policy::kSrrs) l.hints.start_sm = k % 6;
    if (policy == sched::Policy::kHalf)
      l.hints.sm_mask = (k % 2) ? sched::sm_range_mask(3, 6) : sched::sm_range_mask(0, 3);
    ids.push_back(gpu.launch(std::move(l)));
    outs.push_back(out);
    out_words.push_back(s.threads);
    ++k;
  }

  RunArtifacts a;
  a.final_cycle = gpu.run_until_idle(200'000'000);
  for (u32 id : ids) a.kernel_cycles.push_back(gpu.kernel_cycles(id));
  a.stats = gpu.collect_stats();
  a.records = gpu.block_records();
  for (size_t i = 0; i < outs.size(); ++i)
    for (u32 w = 0; w < out_words[i]; ++w)
      a.memory.push_back(store.read32(outs[i] + w * 4));
  return a;
}

class EngineEquivalence : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(EngineEquivalence, MultiKernelScenarioBitIdentical) {
  const RunArtifacts dense = run_scenario(SimEngine::kDense, GetParam());
  const RunArtifacts event = run_scenario(SimEngine::kEvent, GetParam());

  EXPECT_EQ(dense.final_cycle, event.final_cycle);
  EXPECT_EQ(dense.kernel_cycles, event.kernel_cycles);
  expect_same_stats(dense.stats, event.stats, "scenario");
  expect_same_records(dense.records, event.records, "scenario");
  EXPECT_EQ(dense.memory, event.memory) << "final memory state differs";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EngineEquivalence,
                         ::testing::Values(sched::Policy::kDefault,
                                           sched::Policy::kHalf,
                                           sched::Policy::kSrrs),
                         [](const auto& info) {
                           return std::string(sched::policy_name(info.param));
                         });

// ---- Fault-injection equivalence -------------------------------------------
// Injected-fault cycles are wake events; a fault window targeted at cycles
// deep inside a quiescent region must corrupt exactly what it corrupts under
// the dense loop.

struct FaultArtifacts {
  Cycle final_cycle = 0;
  u64 corruptions = 0;
  u64 diverted = 0;
  StatSet stats;
  std::vector<u32> memory;
};

FaultArtifacts run_faulted(SimEngine engine, int scenario) {
  GpuParams params = engine_params(engine);
  memsys::GlobalStore store;
  Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::SrrsKernelScheduler>());
  fault::FaultInjector inj;
  switch (scenario) {
    case 0: inj.arm_droop(4000, 300, 5); break;
    case 1: inj.arm_transient_sm(2, 3500, 2000, 12); break;
    case 2: inj.arm_permanent_sm(4, 5000, 0); break;
    case 3: inj.arm_scheduler_fault(3100, 2); break;
    default: break;
  }
  gpu.set_fault_hook(&inj);

  const memsys::DevPtr in = store.alloc(256 * 1024);
  for (u32 i = 0; i < 64 * 1024; ++i) store.write32(in + i * 4, i ^ 0x9E3779B9u);
  const u32 threads = 1024;
  const memsys::DevPtr out = store.alloc(threads * 4);
  gpu.launch(make_launch(make_gather_kernel(8), threads, 128, {in, out, threads}));

  FaultArtifacts a;
  a.final_cycle = gpu.run_until_idle(100'000'000);
  a.corruptions = inj.corruptions();
  a.diverted = inj.diverted_blocks();
  a.stats = gpu.collect_stats();
  for (u32 w = 0; w < threads; ++w) a.memory.push_back(store.read32(out + w * 4));
  return a;
}

TEST(EngineEquivalenceFaults, InjectedFaultCyclesNeverSkipped) {
  for (int scenario = 0; scenario < 4; ++scenario) {
    SCOPED_TRACE("fault scenario " + std::to_string(scenario));
    const FaultArtifacts dense = run_faulted(SimEngine::kDense, scenario);
    const FaultArtifacts event = run_faulted(SimEngine::kEvent, scenario);
    EXPECT_EQ(dense.final_cycle, event.final_cycle);
    EXPECT_EQ(dense.corruptions, event.corruptions);
    EXPECT_EQ(dense.diverted, event.diverted);
    expect_same_stats(dense.stats, event.stats, "faulted run");
    EXPECT_EQ(dense.memory, event.memory);
  }
}

// ---- Timeout equivalence ---------------------------------------------------

TEST(EngineEquivalenceTimeout, TimeoutCycleMatchesDense) {
  // launch_gap_cycles (3000) exceeds the budget: both engines must throw
  // with the clock parked exactly at the budget limit.
  for (SimEngine e : {SimEngine::kDense, SimEngine::kEvent}) {
    GpuParams params = engine_params(e);
    memsys::GlobalStore store;
    Gpu gpu(params, &store);
    gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
    const memsys::DevPtr out = store.alloc(4096);
    gpu.launch(make_launch(make_store_kernel(), 256, 128, {out, 256}));
    EXPECT_THROW(gpu.run_until_idle(1000), SimTimeout);
    EXPECT_EQ(gpu.now(), 1000u);
  }
}

// ---- Mixed step()/run_until_idle() driving ---------------------------------

TEST(EngineEquivalenceMixed, DenseSteppingComposesWithEventRuns) {
  auto run = [](SimEngine e, u32 presteps) {
    GpuParams params = engine_params(e);
    memsys::GlobalStore store;
    Gpu gpu(params, &store);
    gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
    const u32 threads = 512;
    const memsys::DevPtr out = store.alloc(threads * 4);
    gpu.launch(make_launch(make_spin_kernel(40), threads, 64, {out, threads}));
    for (u32 i = 0; i < presteps; ++i) gpu.step();
    gpu.run_until_idle(50'000'000);
    return std::make_pair(gpu.now(), gpu.collect_stats());
  };
  // Interleave manual dense stepping (including past the arrival cycle and
  // past kernel completion) with the event engine; totals must match a run
  // that did the same stepping and drained densely.
  for (u32 presteps : {0u, 1u, 2999u, 3001u, 3600u, 4000u}) {
    SCOPED_TRACE("presteps=" + std::to_string(presteps));
    const auto dense = run(SimEngine::kDense, presteps);
    const auto mixed = run(SimEngine::kEvent, presteps);
    EXPECT_EQ(dense.first, mixed.first);
    expect_same_stats(dense.second, mixed.second, "mixed driving");
  }
}

// ---- Structural-stall herds ------------------------------------------------
// Every warp of a full SM queues on one busy unit. The event engine keeps
// such a warp blocked by reading the unit's live next-free counter instead
// of re-attempting the issue; the dense loop re-attempts every warp every
// cycle. Both must count the same stalls and finish every block at the same
// cycle.

struct HerdArtifacts {
  Cycle final_cycle = 0;
  StatSet stats;
  std::vector<BlockRecord> records;
  std::vector<u32> memory;
};

HerdArtifacts run_herd(SimEngine engine, bool sfu) {
  GpuParams params = engine_params(engine);
  memsys::GlobalStore store;
  Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  const u32 threads = testing::full_gpu_threads(params);
  const u32 out_words = sfu ? threads : threads * 32 + 64;
  const memsys::DevPtr out = store.alloc(out_words * 4);
  gpu.launch(make_launch(sfu ? testing::make_sfu_herd_kernel(24)
                             : testing::make_lsu_herd_kernel(24),
                         threads, 256, {out, threads}));
  HerdArtifacts a;
  a.final_cycle = gpu.run_until_idle(100'000'000);
  a.stats = gpu.collect_stats();
  a.records = gpu.block_records();
  for (u32 w = 0; w < out_words; ++w) a.memory.push_back(store.read32(out + w * 4));
  return a;
}

class HerdEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(HerdEquivalence, EventEngineBitIdenticalToDense) {
  const bool sfu = GetParam();
  const HerdArtifacts dense = run_herd(SimEngine::kDense, sfu);
  const HerdArtifacts event = run_herd(SimEngine::kEvent, sfu);
  // A herd: structural stalls outnumber issued instructions several times.
  EXPECT_GT(dense.stats.get("issue_stall_structural"),
            4 * dense.stats.get("instructions"));
  EXPECT_EQ(dense.final_cycle, event.final_cycle);
  expect_same_stats(dense.stats, event.stats, sfu ? "sfu herd" : "lsu herd");
  expect_same_records(dense.records, event.records,
                      sfu ? "sfu herd" : "lsu herd");
  EXPECT_EQ(dense.memory, event.memory);
}

INSTANTIATE_TEST_SUITE_P(LsuAndSfu, HerdEquivalence,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return std::string(info.param ? "sfu" : "lsu");
                         });

}  // namespace
}  // namespace higpu::sim

// ---- Workload-level equivalence (full 5-step redundant flow) ---------------

namespace higpu::workloads {
namespace {

struct WorkloadArtifacts {
  Cycle kernel_cycles = 0;
  NanoSec elapsed_ns = 0;
  bool verified = false;
  bool matched = false;
  StatSet stats;
  std::vector<sim::BlockRecord> records;
};

WorkloadArtifacts run_workload_with(const std::string& name, sim::SimEngine engine,
                                    sched::Policy policy,
                                    const core::RedundancySpec& redundancy) {
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.scale = Scale::kTest;
  spec.seed = 2019;
  spec.gpu.engine = engine;
  spec.policy = policy;
  spec.redundancy = redundancy;

  WorkloadArtifacts a;
  const exp::ScenarioResult r = exp::run_scenario(
      spec, 0, [&](runtime::Device& dev, Workload&, core::ExecSession&) {
        a.records = dev.gpu().block_records();
      });
  EXPECT_TRUE(r.ok) << r.error;
  a.kernel_cycles = r.kernel_cycles;
  a.elapsed_ns = r.elapsed_ns;
  a.verified = r.verified;
  a.matched = r.dcls_match;
  a.stats = r.stats;
  return a;
}

class WorkloadEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadEquivalence, EventEngineBitIdenticalToDense) {
  const auto dense =
      run_workload_with(GetParam(), sim::SimEngine::kDense,
                        sched::Policy::kSrrs, core::RedundancySpec::dcls());
  const auto event =
      run_workload_with(GetParam(), sim::SimEngine::kEvent,
                        sched::Policy::kSrrs, core::RedundancySpec::dcls());
  EXPECT_TRUE(dense.verified);
  EXPECT_TRUE(event.verified);
  EXPECT_TRUE(dense.matched);
  EXPECT_TRUE(event.matched);
  EXPECT_EQ(dense.kernel_cycles, event.kernel_cycles) << "cycle counts differ";
  EXPECT_EQ(dense.elapsed_ns, event.elapsed_ns) << "wall-clock model differs";
  expect_same_stats(dense.stats, event.stats, GetParam());
  expect_same_records(dense.records, event.records, GetParam());
  // Block dispatch: every program is compiled at launch, the two issue
  // counters partition the issued instructions, and register-only forms
  // take the lane kernels.
  EXPECT_GT(event.stats.get("blocks_compiled"), 0u);
  EXPECT_GT(event.stats.get("block_exec_hits"), 0u);
  EXPECT_EQ(event.stats.get("block_exec_hits") +
                event.stats.get("block_fallback_exits"),
            event.stats.get("instructions"));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadEquivalence,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '+' || c == '-') c = '_';
                           return name;
                         });

// Three streams of three replica kernels exercise engine wake/dispatch
// paths the DCLS pair never reaches; the engines must still agree bit-for-
// bit at N = 3 with majority voting.
class NmrEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(NmrEquivalence, EventEngineBitIdenticalToDenseAtTmr) {
  const auto dense =
      run_workload_with(GetParam(), sim::SimEngine::kDense,
                        sched::Policy::kSrrs, core::RedundancySpec::tmr());
  const auto event =
      run_workload_with(GetParam(), sim::SimEngine::kEvent,
                        sched::Policy::kSrrs, core::RedundancySpec::tmr());
  EXPECT_TRUE(dense.verified);
  EXPECT_TRUE(event.verified);
  EXPECT_TRUE(dense.matched);
  EXPECT_TRUE(event.matched);
  EXPECT_EQ(dense.kernel_cycles, event.kernel_cycles) << "cycle counts differ";
  EXPECT_EQ(dense.elapsed_ns, event.elapsed_ns) << "wall-clock model differs";
  expect_same_stats(dense.stats, event.stats, GetParam());
  expect_same_records(dense.records, event.records, GetParam());
}

INSTANTIATE_TEST_SUITE_P(TmrWorkloads, NmrEquivalence,
                         ::testing::Values("hotspot", "bfs", "lud"));

}  // namespace
}  // namespace higpu::workloads
