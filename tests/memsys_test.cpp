#include <gtest/gtest.h>

#include <algorithm>

#include "memsys/cache.h"
#include "memsys/coalescer.h"
#include "memsys/global_store.h"
#include "memsys/hierarchy.h"

namespace higpu::memsys {
namespace {

TEST(Cache, HitAfterFill) {
  SetAssocCache c(1024, 2, 128);  // 4 sets
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(1));
}

TEST(Cache, LruEviction) {
  SetAssocCache c(1024, 2, 128);  // 4 sets, 2 ways
  // Lines 0, 4, 8 map to set 0 (line % 4).
  c.access(0, false);
  c.access(4, false);
  c.access(0, false);  // touch 0 -> 4 is now LRU
  c.access(8, false);  // evicts 4
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(4));
  EXPECT_TRUE(c.probe(8));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  SetAssocCache c(1024, 2, 128);
  c.access(0, true);   // dirty
  c.access(4, false);
  const CacheAccessResult r = c.access(8, false);  // evicts line 0 (LRU)
  ASSERT_TRUE(r.writeback_line.has_value());
  EXPECT_EQ(*r.writeback_line, 0u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  SetAssocCache c(1024, 2, 128);
  c.access(0, false);
  c.access(4, false);
  const CacheAccessResult r = c.access(8, false);
  EXPECT_FALSE(r.writeback_line.has_value());
}

TEST(Cache, InvalidateLineReportsDirtiness) {
  SetAssocCache c(1024, 2, 128);
  c.access(0, true);
  EXPECT_TRUE(c.invalidate_line(0));
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.invalidate_line(0));
}

TEST(Cache, ClearDropsEverything) {
  SetAssocCache c(1024, 2, 128);
  c.access(0, true);
  c.clear();
  EXPECT_FALSE(c.probe(0));
}

/// Coalesced lines of `addrs` as a vector.
std::vector<u64> lines_of(const std::vector<u64>& addrs, u32 line_bytes) {
  std::vector<u64> lines(addrs.size());
  lines.resize(coalesce_into(addrs, line_bytes, lines));
  return lines;
}

TEST(Coalescer, ConsecutiveWordsShareOneLine) {
  std::vector<u64> addrs;
  for (u64 i = 0; i < 32; ++i) addrs.push_back(i * 4);
  EXPECT_EQ(lines_of(addrs, 128).size(), 1u);
}

TEST(Coalescer, StridedAccessHitsManyLines) {
  std::vector<u64> addrs;
  for (u64 i = 0; i < 32; ++i) addrs.push_back(i * 128);
  EXPECT_EQ(lines_of(addrs, 128).size(), 32u);
}

TEST(Coalescer, DeduplicatesIntoAscendingLineOrder) {
  const std::vector<u64> addrs = {400, 0, 404, 8};
  const std::vector<u64> lines = lines_of(addrs, 128);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0u);
  EXPECT_EQ(lines[1], 3u);
}

TEST(SmemConflicts, ConsecutiveWordsConflictFree) {
  std::vector<u64> addrs;
  for (u64 i = 0; i < 32; ++i) addrs.push_back(i * 4);
  EXPECT_EQ(smem_conflict_degree(addrs, 32), 1u);
}

TEST(SmemConflicts, SameWordBroadcastIsFree) {
  std::vector<u64> addrs(32, 64);
  EXPECT_EQ(smem_conflict_degree(addrs, 32), 1u);
}

TEST(SmemConflicts, PowerOfTwoStrideConflicts) {
  std::vector<u64> addrs;
  for (u64 i = 0; i < 32; ++i) addrs.push_back(i * 32 * 4);  // all bank 0
  EXPECT_EQ(smem_conflict_degree(addrs, 32), 32u);
}

TEST(GlobalStore, AllocAlignsAndSeparates) {
  GlobalStore g;
  const DevPtr a = g.alloc(100);
  const DevPtr b = g.alloc(100);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_NE(a, 0u);  // null device pointer reserved
}

TEST(GlobalStore, ReadWriteRoundTrip) {
  GlobalStore g;
  const DevPtr p = g.alloc(16);
  g.write32(p, 0xDEADBEEF);
  g.write32(p + 4, 42);
  EXPECT_EQ(g.read32(p), 0xDEADBEEFu);
  EXPECT_EQ(g.read32(p + 4), 42u);
}

TEST(GlobalStore, BlockTransfers) {
  GlobalStore g;
  const DevPtr p = g.alloc(64);
  std::vector<u32> in = {1, 2, 3, 4};
  g.write_block(p, in.data(), 16);
  std::vector<u32> out(4, 0);
  g.read_block(out.data(), p, 16);
  EXPECT_EQ(in, out);
}

TEST(GlobalStore, LastWordOfTheAddressSpace) {
  GlobalStore g;
  g.write32(0xFFFFFFFCu, 0xA1B2C3D4u);
  EXPECT_EQ(g.read32(0xFFFFFFFCu), 0xA1B2C3D4u);
  EXPECT_EQ(g.read32(0), 0u);  // no wrap into the first page
  EXPECT_EQ(g.extent(), u64{1} << 32);
}

TEST(GlobalStore, UnalignedWordsStraddlingPages) {
  GlobalStore g;
  // Byte for byte what a flat little-endian array holds: the low half in
  // the first page, the high half in the next (or, at the end of the
  // address space, in page 0).
  for (const DevPtr addr : {DevPtr{0x0FFE}, DevPtr{0xFFFFFFFE}}) {
    g.write32(addr, 0x44332211u);
    EXPECT_EQ(g.read32(addr), 0x44332211u) << std::hex << addr;
    u8 bytes[4];
    for (u32 i = 0; i < 4; ++i)
      g.read_block(&bytes[i], static_cast<DevPtr>(addr + i), 1);
    EXPECT_EQ(bytes[0], 0x11);
    EXPECT_EQ(bytes[1], 0x22);
    EXPECT_EQ(bytes[2], 0x33);
    EXPECT_EQ(bytes[3], 0x44);
  }
  EXPECT_EQ(g.read32(0), 0x4433u);  // the wrapped half of the second word
}

/// Capture `g` alone: its store pages and extent.
ckpt::Snapshot capture(GlobalStore& g) {
  ckpt::Writer w;
  ckpt::Snapshot snap;
  g.save(w, snap);
  return snap;
}

TEST(GlobalStore, WildWriteAddsOnePage) {
  GlobalStore g;
  const DevPtr p = g.alloc(64);
  g.write32(p, 1);
  const ckpt::Snapshot a = capture(g);
  const u64 imaged = g.pages_imaged();
  g.write32(0xDEADBEE0u, 2);
  const ckpt::Snapshot b = capture(g);
  EXPECT_EQ(g.pages_imaged(), imaged + 1);
  EXPECT_EQ(b.store_pages.size(), a.store_pages.size() + 1);
  EXPECT_EQ(b.store_pages.back().index, 0xDEADBEE0u / ckpt::kStorePageBytes);
  // The flat-state size still counts up to the wild address.
  EXPECT_EQ(b.store_extent, 0xDEADBEE4u);
}

TEST(GlobalStore, WildReadAddsNoPage) {
  GlobalStore g;
  const DevPtr p = g.alloc(64);
  g.write32(p, 1);
  const ckpt::Snapshot a = capture(g);
  EXPECT_EQ(g.read32(0xDEADBEE0u), 0u);
  const ckpt::Snapshot b = capture(g);
  EXPECT_EQ(b.store_pages.size(), a.store_pages.size());
  EXPECT_EQ(b.store_pages.front().image, a.store_pages.front().image);
  EXPECT_EQ(b.store_extent, 0xDEADBEE4u);
}

TEST(Hierarchy, L1HitIsFasterThanMiss) {
  MemParams mp;
  MemHierarchy mem(2, mp);
  const Cycle miss = mem.access_line(0, 100, false, 1000).done;
  const Cycle hit = mem.access_line(0, 100, false, 2000).done;
  EXPECT_GT(miss - 1000, mp.l1_latency);
  EXPECT_EQ(hit - 2000, mp.l1_latency);
  EXPECT_EQ(mem.stats().get("l1_misses"), 1u);
  EXPECT_EQ(mem.stats().get("l1_hits"), 1u);
}

TEST(Hierarchy, L2SharedAcrossSms) {
  MemParams mp;
  MemHierarchy mem(2, mp);
  mem.access_line(0, 100, false, 0);   // fills L2 (and SM0's L1)
  const Cycle t = mem.access_line(1, 100, false, 10000).done;
  // SM1 misses L1 but hits L2: no new DRAM read.
  EXPECT_EQ(mem.stats().get("dram_reads"), 1u);
  EXPECT_LT(t - 10000, mp.dram_row_miss_latency);
}

TEST(Hierarchy, MshrMergesConcurrentMisses) {
  MemParams mp;
  MemHierarchy mem(1, mp);
  const Cycle a = mem.access_line(0, 7, false, 100).done;
  const Cycle b = mem.access_line(0, 7, false, 101).done;  // in-flight merge
  EXPECT_EQ(b, a);
  EXPECT_EQ(mem.stats().get("l1_mshr_merges"), 1u);
  EXPECT_EQ(mem.stats().get("dram_reads"), 1u);
}

TEST(Hierarchy, DramBandwidthSerializesBursts) {
  MemParams mp;
  mp.dram_channels = 1;
  MemHierarchy mem(1, mp);
  // Distinct lines mapping to the single channel back to back.
  const Cycle t0 = mem.access_line(0, 0, false, 0).done;
  const Cycle t1 = mem.access_line(0, 64, false, 0).done;
  EXPECT_GE(t1, t0 + mp.dram_service - 1);
}

TEST(Hierarchy, AtomicBypassesL1) {
  MemParams mp;
  MemHierarchy mem(1, mp);
  mem.access_line(0, 5, false, 0);   // fill in flight, installed on reap
  mem.access_atomic(0, 5, 1000);     // reaps the fill, then invalidates it
  EXPECT_EQ(mem.stats().get("atomics"), 1u);
  // A later read misses the (invalidated) L1 line.
  mem.access_line(0, 5, false, 5000);
  EXPECT_EQ(mem.stats().get("l1_misses"), 2u);
}

TEST(Hierarchy, ResetRestoresColdState) {
  MemParams mp;
  MemHierarchy mem(1, mp);
  mem.access_line(0, 9, false, 0);
  mem.reset();
  EXPECT_EQ(mem.stats().get("l1_misses"), 0u);
  mem.access_line(0, 9, false, 0);
  EXPECT_EQ(mem.stats().get("l1_misses"), 1u);
}

// ---- MSHR lifecycle counter-pinning ----------------------------------------
// Crafted sequences that fail if any of the three historical MSHR bugs is
// reintroduced: (1) expired fills of *other* lines never reaped, pinning
// MSHR capacity; (2) merge-on-write touching the tag array early and
// dropping the victim writeback; (3) MSHR-full misses issued untracked
// instead of stalling until an entry frees.

/// 1 KiB, 2-way, 128 B lines -> 4 sets; lines 0,4,8,12,16 map to set 0.
MemParams tiny_l1_params() {
  MemParams mp;
  mp.l1_size = 1024;
  mp.l1_assoc = 2;
  return mp;
}

TEST(MshrLifecycle, ExpiredFillsOfOtherLinesAreReaped) {
  MemParams mp;
  mp.l1_mshr_entries = 2;
  MemHierarchy mem(1, mp);
  mem.access_line(0, 10, false, 0);  // two in-flight fills: MSHR full
  mem.access_line(0, 11, false, 0);
  // Much later, three *different* lines miss back to back. Both old fills
  // have long expired; reaping them must free both entries, so no access
  // stalls on MSHR capacity (the seed model reaped an entry only when its
  // own line recurred, pinning capacity forever).
  mem.access_line(0, 20, false, 100000);
  mem.access_line(0, 21, false, 100001);
  const StatSet s = mem.stats();
  EXPECT_EQ(s.get("l1_mshr_stalls"), 0u);
  EXPECT_EQ(s.get("l1_mshr_stall_cycles"), 0u);
  EXPECT_EQ(s.get("l1_misses"), 4u);
  // The reaped fills actually installed their lines: both now hit.
  mem.access_line(0, 10, false, 200000);
  mem.access_line(0, 11, false, 200001);
  EXPECT_EQ(mem.stats().get("l1_hits"), 2u);
}

TEST(MshrLifecycle, MergeOnWriteDefersDirtyFillAndKeepsVictimWriteback) {
  const MemParams mp = tiny_l1_params();
  MemHierarchy mem(1, mp);
  // Two dirty lines installed in set 0 (write-miss fills arrive dirty).
  mem.access_line(0, 0, true, 0);
  mem.access_line(0, 4, true, 1);
  mem.access_line(0, 8, false, 10000);  // reaps fills of 0 and 4; 8 in flight
  ASSERT_EQ(mem.stats().get("l1_write_misses"), 2u);

  // Merge-on-write on the in-flight fill of line 8. The seed model called
  // l1.access(8, true) here: an early fill evicting dirty line 0 and
  // discarding the CacheAccessResult — a lost writeback and a phantom
  // resident line. The fixed model marks the *fill* dirty and leaves the
  // tag array untouched until the fill completes.
  mem.access_line(0, 8, true, 10001);
  EXPECT_EQ(mem.stats().get("l1_mshr_merges"), 1u);
  EXPECT_EQ(mem.stats().get("l1_writebacks"), 0u);  // nothing evicted yet

  // The fill of 8 completes and evicts LRU line 0 (dirty): exactly one
  // counted writeback.
  mem.access_line(0, 8, false, 20000);
  EXPECT_EQ(mem.stats().get("l1_hits"), 1u);
  EXPECT_EQ(mem.stats().get("l1_writebacks"), 1u);

  // The merged store dirtied the fill: evicting line 8 later writes it
  // back too (set 0 traffic: 12 evicts 4, 16 evicts 8).
  mem.access_line(0, 12, false, 30000);
  mem.access_line(0, 16, false, 40000);  // reaps 12 -> evicts 4 (dirty)
  mem.access_line(0, 0, false, 50000);   // reaps 16 -> evicts 8 (dirty)
  EXPECT_EQ(mem.stats().get("l1_writebacks"), 3u);
}

TEST(MshrLifecycle, FullMshrStallsUntilEntryFrees) {
  MemParams mp;
  mp.l1_mshr_entries = 2;
  MemHierarchy mem(1, mp);
  const Cycle r0 = mem.access_line(0, 100, false, 0).done;
  const Cycle r1 = mem.access_line(0, 200, false, 1).done;
  // Third distinct miss while both entries are in flight: the seed model
  // silently issued it untracked; now it must wait for the earliest entry.
  const MemResponse r2 = mem.access_line(0, 300, false, 2);
  const Cycle earliest = std::min(r0, r1);
  EXPECT_GT(r2.done, earliest);
  EXPECT_GT(r2.issue_free, earliest);  // the L1 port was held by the stall
  const StatSet s = mem.stats();
  EXPECT_EQ(s.get("l1_mshr_stalls"), 1u);
  EXPECT_EQ(s.get("l1_mshr_stall_cycles"), earliest - 2);
  EXPECT_EQ(s.get("l1_misses"), 3u);
}

// ---- DRAM row-buffer model -------------------------------------------------

TEST(DramModel, RowBufferHitIsCheaperThanMiss) {
  MemParams mp;
  mp.dram_channels = 1;
  mp.dram_banks_per_channel = 1;
  MemHierarchy mem(1, mp);
  // Line 0 opens row 0; line 1 (same 2 KiB row) hits it; line 100 (row 6)
  // forces a precharge/activate.
  const Cycle m0 = mem.access_line(0, 0, false, 0).done;
  const Cycle h = mem.access_line(0, 1, false, 10000).done;
  const Cycle m1 = mem.access_line(0, 100, false, 20000).done;
  EXPECT_EQ(m0, mp.l1_latency + mp.dram_row_miss_latency);
  EXPECT_EQ(h - 10000, mp.l1_latency + mp.dram_row_hit_latency);
  EXPECT_EQ(m1 - 20000, mp.l1_latency + mp.dram_row_miss_latency);
  const StatSet s = mem.stats();
  EXPECT_EQ(s.get("dram_row_hits"), 1u);
  EXPECT_EQ(s.get("dram_row_misses"), 2u);
}

TEST(DramModel, BanksServeRowMissesInParallel) {
  MemParams mp;
  mp.dram_channels = 1;
  mp.dram_banks_per_channel = 4;
  MemHierarchy mem(4, mp);
  // Four SMs each hammer a different row (rows 0..3 -> banks 0..3): bank
  // parallelism means none should queue behind another's row switch.
  const u32 lines_per_row = mp.dram_row_bytes / mp.line_bytes;
  Cycle worst = 0;
  for (u32 sm = 0; sm < 4; ++sm) {
    const Cycle done = mem.access_line(sm, sm * lines_per_row, false, 0).done;
    worst = std::max(worst, done);
  }
  // All four row misses overlap: the slowest pays at most the bus slots on
  // top of one full row-miss latency, not four serialized row switches.
  EXPECT_LT(worst, mp.l1_latency + 2 * mp.dram_row_miss_latency);
  EXPECT_EQ(mem.stats().get("dram_row_misses"), 4u);
}

// ---- L1 write policies -----------------------------------------------------

TEST(WritePolicy, WriteThroughForwardsStoresAndNeverDirtiesL1) {
  MemParams mp = tiny_l1_params();
  mp.l1_write_policy = WritePolicy::kWriteThrough;
  MemHierarchy mem(1, mp);
  mem.access_line(0, 0, true, 0);       // write miss: store to L2 + clean fill
  mem.access_line(0, 0, true, 10000);   // write hit: store to L2 again
  // Evict line 0 from set 0: clean, so no writeback anywhere.
  mem.access_line(0, 4, false, 20000);
  mem.access_line(0, 8, false, 30000);
  mem.access_line(0, 12, false, 40000);
  const StatSet s = mem.stats();
  EXPECT_EQ(s.get("l1_write_through"), 2u);
  EXPECT_EQ(s.get("l1_write_misses"), 1u);
  EXPECT_EQ(s.get("l1_write_hits"), 1u);
  EXPECT_EQ(s.get("l1_writebacks"), 0u);
}

TEST(WritePolicy, NoWriteAllocateBypassesL1OnWriteMiss) {
  MemParams mp;
  mp.l1_write_alloc = WriteAlloc::kNoAllocate;
  MemHierarchy mem(1, mp);
  mem.access_line(0, 0, true, 0);  // store straight to L2, no L1 fill
  // A later read still misses the L1 (nothing was allocated) but hits L2.
  mem.access_line(0, 0, false, 10000);
  const StatSet s = mem.stats();
  EXPECT_EQ(s.get("l1_write_misses"), 1u);
  EXPECT_EQ(s.get("l1_write_through"), 1u);
  EXPECT_EQ(s.get("l1_misses"), 1u);
  EXPECT_EQ(s.get("l2_hits"), 1u);
}

TEST(WritePolicy, MemLabelDistinguishesSweptConfigs) {
  MemParams def;
  EXPECT_EQ(mem_label(def), "");
  MemParams wt = def;
  wt.l1_write_policy = WritePolicy::kWriteThrough;
  wt.l1_write_alloc = WriteAlloc::kNoAllocate;
  EXPECT_EQ(mem_label(wt), "wt-nwa");
  MemParams small = def;
  small.l1_mshr_entries = 4;
  small.dram_banks_per_channel = 1;
  EXPECT_EQ(mem_label(small), "mshr4-dbk1");
}

}  // namespace
}  // namespace higpu::memsys
