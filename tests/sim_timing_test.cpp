// Timing behaviour of the simulator: determinism, latency ordering,
// occupancy limits, launch serialization gap, block records.
#include <gtest/gtest.h>

#include "memsys/global_store.h"
#include "sched/policies.h"
#include "sim/gpu.h"
#include "tests/test_kernels.h"

namespace higpu::sim {
namespace {

using testing::make_launch;
using testing::make_spin_kernel;
using testing::make_store_kernel;

Cycle run_one(const GpuParams& params, const KernelLaunch& launch) {
  memsys::GlobalStore store;
  Gpu gpu(params, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l = launch;
  l.params[0] = store.alloc(l.grid.count() * l.block.count() * 4);
  const u32 id = gpu.launch(std::move(l));
  gpu.run_until_idle(100'000'000);
  return gpu.kernel_cycles(id);
}

TEST(SimTiming, BitExactDeterminism) {
  GpuParams p;
  const KernelLaunch l =
      make_launch(make_spin_kernel(50), 2048, 128, {0, 2048});
  const Cycle a = run_one(p, l);
  const Cycle b = run_one(p, l);
  EXPECT_EQ(a, b);
}

TEST(SimTiming, MoreWorkTakesLonger) {
  GpuParams p;
  const Cycle small =
      run_one(p, make_launch(make_spin_kernel(10), 1024, 128, {0, 1024}));
  const Cycle big =
      run_one(p, make_launch(make_spin_kernel(200), 1024, 128, {0, 1024}));
  EXPECT_GT(big, small);
}

TEST(SimTiming, MoreSmsFinishFaster) {
  GpuParams two;
  two.num_sms = 2;
  GpuParams six;
  six.num_sms = 6;
  const KernelLaunch l =
      make_launch(make_spin_kernel(100), 8192, 128, {0, 8192});
  EXPECT_GT(run_one(two, l), run_one(six, l));
}

TEST(SimTiming, SfuOpsSlowerThanSpOps) {
  // Same structure, one kernel uses fdiv (SFU) instead of ffma (SP).
  using namespace isa;
  auto build = [](bool use_sfu) {
    KernelBuilder kb(use_sfu ? "sfu" : "sp");
    Reg out = kb.reg(), n = kb.reg();
    kb.ldp(out, 0);
    kb.ldp(n, 1);
    Reg gid = kb.global_tid_x();
    Label done = kb.label();
    kb.guard_range(gid, n, done);
    Reg acc = kb.reg();
    kb.movf(acc, 1.5f);
    for (int i = 0; i < 64; ++i) {
      if (use_sfu)
        kb.fdiv(acc, acc, fimm(1.000001f));
      else
        kb.ffma(acc, acc, fimm(1.000001f), fimm(0.0f));
    }
    Reg addr = kb.reg();
    kb.imad(addr, gid, imm(4), out);
    kb.stg(addr, acc);
    kb.bind(done);
    kb.exit();
    return kb.build();
  };
  GpuParams p;
  const Cycle sp = run_one(p, make_launch(build(false), 4096, 128, {0, 4096}));
  const Cycle sfu = run_one(p, make_launch(build(true), 4096, 128, {0, 4096}));
  EXPECT_GT(sfu, sp);
}

TEST(SimTiming, LaunchGapDelaysVisibility) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l = make_launch(make_store_kernel(), 64, 64, {0, 64});
  l.params[0] = store.alloc(64 * 4);
  const u32 id = gpu.launch(std::move(l));
  gpu.run_until_idle(10'000'000);
  // The first block cannot be dispatched before the arrival gap.
  EXPECT_GE(gpu.kernel_state(id).first_dispatch_cycle, p.launch_gap_cycles);
}

TEST(SimTiming, BlockRecordsCoverAllBlocks) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l = make_launch(make_spin_kernel(20), 4096, 128, {0, 4096});
  l.params[0] = store.alloc(4096 * 4);
  const u32 id = gpu.launch(std::move(l));
  gpu.run_until_idle(100'000'000);

  const auto& records = gpu.block_records();
  EXPECT_EQ(records.size(), 32u);
  std::vector<bool> seen(32, false);
  for (const BlockRecord& r : records) {
    EXPECT_EQ(r.launch_id, id);
    EXPECT_LT(r.sm, p.num_sms);
    EXPECT_EQ(r.sm, r.intended_sm);  // no faults armed
    EXPECT_LE(r.dispatch_cycle, r.end_cycle);
    seen[r.block_linear] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SimTiming, SharedMemoryLimitsOccupancy) {
  // A block using all shared memory: only one such block per SM.
  using namespace isa;
  KernelBuilder kb("hog");
  kb.set_shared_bytes(48 * 1024);
  Reg out = kb.reg(), n = kb.reg();
  kb.ldp(out, 0);
  kb.ldp(n, 1);
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, n, done);
  Reg addr = kb.reg();
  kb.imad(addr, gid, imm(4), out);
  kb.stg(addr, gid);
  kb.bind(done);
  kb.exit();

  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l;
  l.program = kb.build();
  l.grid = {12, 1, 1};
  l.block = {64, 1, 1};
  l.params = {store.alloc(12 * 64 * 4), 12 * 64};
  gpu.launch(std::move(l));

  // Step until some blocks are resident; verify <= 1 per SM at all times.
  for (int step = 0; step < 20000; ++step) {
    gpu.step();
    for (u32 s = 0; s < p.num_sms; ++s)
      ASSERT_LE(gpu.sm(s).resident_blocks(), 1u);
    if (gpu.idle()) break;
  }
  EXPECT_TRUE(gpu.idle());
}

TEST(SimTiming, RunUntilIdleThrowsOnBudgetExhaustion) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l = make_launch(make_spin_kernel(100000), 4096, 128, {0, 4096});
  l.params[0] = store.alloc(4096 * 4);
  gpu.launch(std::move(l));
  EXPECT_THROW(gpu.run_until_idle(1000), SimTimeout);
}

TEST(SimTiming, GtoCompletesCorrectly) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  const u32 n = 512;
  KernelLaunch l = make_launch(make_store_kernel(), n, 128, {0, n});
  const memsys::DevPtr out = store.alloc(n * 4);
  l.params[0] = out;
  gpu.launch(std::move(l));
  gpu.run_until_idle(10'000'000);
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(store.read32(out + i * 4), i);
}

TEST(SimTiming, StatsAreCollected) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  KernelLaunch l = make_launch(make_spin_kernel(10), 1024, 128, {0, 1024});
  l.params[0] = store.alloc(1024 * 4);
  gpu.launch(std::move(l));
  gpu.run_until_idle(10'000'000);
  const StatSet stats = gpu.collect_stats();
  EXPECT_GT(stats.get("instructions"), 0u);
  EXPECT_GT(stats.get("blocks_dispatched"), 0u);
  EXPECT_EQ(stats.get("kernels_completed"), 1u);
  EXPECT_GT(stats.get("cycles"), 0u);
}

}  // namespace
}  // namespace higpu::sim
