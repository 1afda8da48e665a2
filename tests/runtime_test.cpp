// Host runtime: memory transfers, launch/synchronize semantics, and the
// end-to-end wall-clock model.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "runtime/device.h"
#include "sched/policies.h"
#include "tests/test_kernels.h"

namespace higpu::runtime {
namespace {

using testing::make_launch;
using testing::make_spin_kernel;
using testing::make_store_kernel;

std::unique_ptr<Device> make_device() {
  auto dev = std::make_unique<Device>();
  dev->set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  return dev;
}

TEST(Device, MemcpyRoundTrip) {
  auto dev = make_device();
  const DevPtr p = dev->malloc(64);
  std::vector<u32> in = {10, 20, 30, 40};
  dev->memcpy_h2d(p, in.data(), 16);
  std::vector<u32> out(4, 0);
  dev->memcpy_d2h(out.data(), p, 16);
  EXPECT_EQ(in, out);
}

TEST(Device, EveryOperationAdvancesTime) {
  auto dev = make_device();
  const NanoSec t0 = dev->elapsed_ns();
  const DevPtr p = dev->malloc(1024);
  const NanoSec t1 = dev->elapsed_ns();
  EXPECT_GT(t1, t0);
  std::vector<u32> data(256, 1);
  dev->memcpy_h2d(p, data.data(), 1024);
  const NanoSec t2 = dev->elapsed_ns();
  EXPECT_GT(t2, t1);
  dev->host_compare(1024);
  EXPECT_GT(dev->elapsed_ns(), t2);
}

TEST(Device, LargerTransfersCostMore) {
  PlatformParams pp;
  const NanoSec small = pp.transfer_ns(1024, true);
  const NanoSec big = pp.transfer_ns(16 * 1024 * 1024, true);
  EXPECT_GT(big, small);
  EXPECT_GE(small, pp.memcpy_latency_ns);  // latency floor
}

TEST(Device, KernelExecutionExtendsWallClock) {
  auto dev = make_device();
  const DevPtr out = dev->malloc(4096 * 4);
  const NanoSec before = dev->elapsed_ns();
  dev->launch(make_launch(make_spin_kernel(200), 4096, 128, {out, 4096}));
  const Cycle cycles = dev->synchronize();
  EXPECT_GT(cycles, 0u);
  // Wall clock advanced at least by the kernel's cycles / clock.
  const double ns_per_cycle = 1.0 / dev->gpu().params().clock_ghz;
  EXPECT_GE(dev->elapsed_ns() - before,
            static_cast<NanoSec>(static_cast<double>(cycles) * ns_per_cycle * 0.9));
}

TEST(Device, SynchronizeIsIdempotentOnTime) {
  auto dev = make_device();
  const DevPtr out = dev->malloc(256 * 4);
  dev->launch(make_launch(make_store_kernel(), 256, 128, {out, 256}));
  dev->synchronize();
  const NanoSec t1 = dev->elapsed_ns();
  dev->synchronize();  // nothing pending: only the fixed sync overhead
  EXPECT_LE(dev->elapsed_ns() - t1, dev->platform().sync_ns + 1);
}

TEST(Device, GpuCyclesAccumulateAcrossSyncs) {
  auto dev = make_device();
  const DevPtr out = dev->malloc(1024 * 4);
  dev->launch(make_launch(make_spin_kernel(50), 1024, 128, {out, 1024}));
  dev->synchronize();
  const Cycle after_first = dev->gpu_cycles_consumed();
  dev->launch(make_launch(make_spin_kernel(50), 1024, 128, {out, 1024}));
  dev->synchronize();
  EXPECT_GT(dev->gpu_cycles_consumed(), after_first);
}

TEST(Device, HostChargesScaleWithBytes) {
  auto dev = make_device();
  const NanoSec t0 = dev->elapsed_ns();
  dev->host_parse(1'000'000);
  const NanoSec parse = dev->elapsed_ns() - t0;
  dev->host_generate(1'000'000);
  const NanoSec gen = dev->elapsed_ns() - t0 - parse;
  EXPECT_GT(parse, gen);  // parsing a text file is slower than generating
}

TEST(Device, D2hSynchronizesPendingKernels) {
  // Reading back a buffer written by an unsynchronized kernel must see the
  // kernel's output (implicit sync).
  auto dev = make_device();
  const u32 n = 256;
  const DevPtr out = dev->malloc(n * 4);
  dev->launch(make_launch(make_store_kernel(), n, 128, {out, n}));
  std::vector<u32> host(n, 0xFF);
  dev->memcpy_d2h(host.data(), out, n * 4);
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(host[i], i);
}

// ---- Multi-stream launch ordering ------------------------------------------

TEST(Device, SameStreamLaunchesSerialize) {
  // Two kernels on one stream must never overlap: the second's first block
  // dispatches only after the first's last block retired.
  auto dev = make_device();
  const u32 n = 768;
  const DevPtr out0 = dev->malloc(n * 4);
  const DevPtr out1 = dev->malloc(n * 4);
  const u32 id0 =
      dev->launch(make_launch(make_spin_kernel(500), n, 128, {out0, n}), 2);
  const u32 id1 =
      dev->launch(make_launch(make_spin_kernel(500), n, 128, {out1, n}), 2);
  dev->synchronize();

  Cycle first_end = 0, second_start = ~Cycle{0};
  for (const sim::BlockRecord& r : dev->gpu().block_records()) {
    if (r.launch_id == id0) first_end = std::max(first_end, r.end_cycle);
    if (r.launch_id == id1)
      second_start = std::min(second_start, r.dispatch_cycle);
  }
  EXPECT_GE(second_start, first_end);
}

TEST(Device, CrossStreamLaunchesInterleave) {
  // The same two kernels on *different* streams may overlap under the
  // default scheduler — stream ordering must not serialize across streams.
  auto dev = make_device();
  const u32 n = 768;
  const DevPtr out0 = dev->malloc(n * 4);
  const DevPtr out1 = dev->malloc(n * 4);
  const u32 id0 =
      dev->launch(make_launch(make_spin_kernel(2000), n, 128, {out0, n}), 0);
  const u32 id1 =
      dev->launch(make_launch(make_spin_kernel(2000), n, 128, {out1, n}), 1);
  dev->synchronize();

  Cycle end0 = 0, start1 = ~Cycle{0};
  for (const sim::BlockRecord& r : dev->gpu().block_records()) {
    if (r.launch_id == id0) end0 = std::max(end0, r.end_cycle);
    if (r.launch_id == id1) start1 = std::min(start1, r.dispatch_cycle);
  }
  EXPECT_LT(start1, end0) << "cross-stream kernels never overlapped";
}

TEST(Device, MultiStreamInterleavingIsDeterministicAcrossEngines) {
  // A 4-stream mix (two streams carrying two kernels each) must produce
  // bit-identical block records and timelines under the dense and event
  // engines — the foundation of the serving-mode determinism contract.
  auto run = [](sim::SimEngine engine) {
    sim::GpuParams p;
    p.engine = engine;
    Device dev(p);
    dev.set_kernel_scheduler(
        std::make_unique<sched::DefaultKernelScheduler>());
    const u32 n = 512;
    for (u32 s = 0; s < 4; ++s) {
      const DevPtr out = dev.malloc(n * 4);
      dev.launch(make_launch(make_spin_kernel(300 + 100 * s), n, 128,
                             {out, n}),
                 s % 2 == 0 ? 0 : s);
    }
    dev.synchronize();
    return std::make_pair(dev.gpu().block_records(), dev.elapsed_ns());
  };

  const auto ref = run(sim::SimEngine::kDense);
  ASSERT_FALSE(ref.first.empty());
  const auto got = run(sim::SimEngine::kEvent);
  EXPECT_EQ(got.second, ref.second);
  ASSERT_EQ(got.first.size(), ref.first.size());
  for (size_t i = 0; i < ref.first.size(); ++i) {
    EXPECT_EQ(got.first[i].launch_id, ref.first[i].launch_id);
    EXPECT_EQ(got.first[i].block_linear, ref.first[i].block_linear);
    EXPECT_EQ(got.first[i].sm, ref.first[i].sm);
    EXPECT_EQ(got.first[i].dispatch_cycle, ref.first[i].dispatch_cycle);
    EXPECT_EQ(got.first[i].end_cycle, ref.first[i].end_cycle);
  }
}

}  // namespace
}  // namespace higpu::runtime
