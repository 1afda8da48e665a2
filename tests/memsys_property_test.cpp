// Property tests for the memory system: the SetAssocCache is checked
// against an independent reference LRU model over random access streams;
// coalescer invariants hold for arbitrary address patterns; the hierarchy's
// timing is monotonic and causal. The hierarchy's ordered MSHR, the
// division-free coalescer and the stack-buffer conflict counter are each
// checked against the straightforward implementation they replaced, kept
// here as reference models.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "memsys/cache.h"
#include "memsys/coalescer.h"
#include "memsys/hierarchy.h"

namespace higpu::memsys {
namespace {

/// Independent reference: per-set LRU list of (tag, dirty).
class RefCache {
 public:
  RefCache(u32 size_bytes, u32 assoc, u32 line_bytes)
      : sets_(size_bytes / line_bytes / assoc), assoc_(assoc) {}

  struct Result {
    bool hit;
    bool evicted_dirty;
    u64 evicted_line;
  };

  Result access(u64 line, bool write) {
    const u32 set = static_cast<u32>(line % sets_);
    const u64 tag = line / sets_;
    auto& lru = sets_state_[set];  // front = most recent
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->first == tag) {
        const bool dirty = it->second || write;
        lru.erase(it);
        lru.emplace_front(tag, dirty);
        return {true, false, 0};
      }
    }
    Result r{false, false, 0};
    if (lru.size() == assoc_) {
      r.evicted_dirty = lru.back().second;
      r.evicted_line = lru.back().first * sets_ + set;
      lru.pop_back();
    }
    lru.emplace_front(tag, write);
    return r;
  }

 private:
  u32 sets_;
  u32 assoc_;
  std::map<u32, std::list<std::pair<u64, bool>>> sets_state_;
};

struct CacheGeom {
  u32 size;
  u32 assoc;
};

class CacheVsReference : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheVsReference, RandomStreamMatchesReferenceModel) {
  const CacheGeom g = GetParam();
  SetAssocCache dut(g.size, g.assoc, 128);
  RefCache ref(g.size, g.assoc, 128);
  Rng rng(g.size * 31 + g.assoc);

  for (u32 i = 0; i < 20000; ++i) {
    // Mix of hot lines (locality) and cold misses.
    const u64 line = rng.next_bool(0.7f) ? rng.next_below(64)
                                         : rng.next_below(1 << 16);
    const bool write = rng.next_bool(0.3f);
    const CacheAccessResult got = dut.access(line, write);
    const RefCache::Result want = ref.access(line, write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " line " << line;
    ASSERT_EQ(got.writeback_line.has_value(), want.evicted_dirty)
        << "access " << i << " line " << line;
    if (got.writeback_line) {
      ASSERT_EQ(*got.writeback_line, want.evicted_line) << "access " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(CacheGeom{4 * 1024, 1}, CacheGeom{8 * 1024, 2},
                      CacheGeom{24 * 1024, 4}, CacheGeom{64 * 1024, 8}),
    [](const auto& info) {
      return std::to_string(info.param.size / 1024) + "k_w" +
             std::to_string(info.param.assoc);
    });

class CoalescerProperty : public ::testing::TestWithParam<u64> {};

TEST_P(CoalescerProperty, InvariantsHoldForRandomPatterns) {
  Rng rng(GetParam());
  for (u32 iter = 0; iter < 200; ++iter) {
    std::vector<u64> addrs;
    const u32 lanes = 1 + static_cast<u32>(rng.next_below(32));
    for (u32 l = 0; l < lanes; ++l)
      addrs.push_back(rng.next_below(1 << 20) * 4);
    std::vector<u64> lines(addrs.size());
    lines.resize(coalesce_into(addrs, 128, lines));

    // 1 <= |lines| <= lanes.
    ASSERT_GE(lines.size(), 1u);
    ASSERT_LE(lines.size(), addrs.size());
    // No duplicates.
    for (size_t i = 0; i < lines.size(); ++i)
      for (size_t j = i + 1; j < lines.size(); ++j)
        ASSERT_NE(lines[i], lines[j]);
    // Every address covered; every line justified by some address.
    for (u64 a : addrs)
      ASSERT_NE(std::find(lines.begin(), lines.end(), a / 128), lines.end());
    for (u64 line : lines) {
      bool justified = false;
      for (u64 a : addrs) justified |= a / 128 == line;
      ASSERT_TRUE(justified);
    }

    // Bank-conflict degree bounded by distinct word count and >= 1.
    const u32 deg = smem_conflict_degree(addrs, 32);
    ASSERT_GE(deg, 1u);
    ASSERT_LE(deg, lanes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerProperty, ::testing::Range<u64>(1, 9));

// ---------------------------------------------------------------------------
// Reference models: the implementations the hot-path versions replaced.

/// Sort + unique over a heap vector, one division per lane.
std::vector<u64> ref_coalesce(const std::vector<u64>& byte_addrs,
                              u32 line_bytes) {
  std::vector<u64> lines;
  for (u64 a : byte_addrs) lines.push_back(a / line_bytes);
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

/// Distinct words via sort + unique, then a per-bank count array.
u32 ref_smem_conflict_degree(const std::vector<u64>& byte_addrs,
                             u32 num_banks) {
  if (byte_addrs.empty()) return 1;
  std::vector<u64> words;
  for (u64 a : byte_addrs) words.push_back(a / 4);
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  std::vector<u32> per_bank(num_banks, 0);
  u32 worst = 1;
  for (u64 w : words)
    worst = std::max(worst, ++per_bank[static_cast<u32>(w % num_banks)]);
  return worst;
}

/// The hierarchy timing model with an unordered MSHR: entries are dropped
/// by swap-pop, and reaping and MSHR-full stalls each scan for the entry
/// with the least (ready, line). Everything else mirrors MemHierarchy.
class RefHierarchy {
 public:
  RefHierarchy(u32 num_sms, const MemParams& p)
      : p_(p),
        lines_per_row_(p.dram_row_bytes / p.line_bytes),
        l2_(p.l2_size, p.l2_assoc, p.line_bytes),
        l1_port_free_(num_sms, 0),
        l2_bank_free_(p.l2_banks, 0),
        dram_channel_free_(p.dram_channels, 0),
        dram_banks_(static_cast<size_t>(p.dram_channels) *
                    p.dram_banks_per_channel),
        mshr_(num_sms) {
    for (u32 i = 0; i < num_sms; ++i)
      l1_.emplace_back(p.l1_size, p.l1_assoc, p.line_bytes);
  }

  const StatSet& stats() const { return stats_; }

  MemResponse access_line(u32 sm, u64 line, bool is_write, Cycle now) {
    const Cycle t = std::max(now, l1_port_free_[sm]);
    const bool wt = p_.l1_write_policy == WritePolicy::kWriteThrough;
    auto& mshr = mshr_[sm];
    reap(sm, t);
    for (Entry& e : mshr) {
      if (e.line != line) continue;
      stats_.add("l1_mshr_merges");
      Cycle done = e.ready;
      if (is_write) {
        if (wt) {
          done = access_l2(line, true, t + p_.l1_latency, false);
          stats_.add("l1_write_through");
        } else {
          e.fill_dirty = true;
        }
      }
      l1_port_free_[sm] = t + 1;
      return {done, t + 1};
    }
    if (l1_[sm].touch(line, is_write && !wt)) {
      stats_.add(is_write ? "l1_write_hits" : "l1_hits");
      Cycle done = t + p_.l1_latency;
      if (is_write && wt) {
        done = access_l2(line, true, t + p_.l1_latency, false);
        stats_.add("l1_write_through");
      }
      l1_port_free_[sm] = t + 1;
      return {done, t + 1};
    }
    stats_.add(is_write ? "l1_write_misses" : "l1_misses");
    const bool allocate = !is_write || p_.l1_write_alloc == WriteAlloc::kAllocate;
    Cycle issue = t;
    if (allocate && mshr.size() >= p_.l1_mshr_entries) {
      const size_t idx = earliest_entry(mshr);
      issue = mshr[idx].ready;
      stats_.add("l1_mshr_stalls");
      stats_.add("l1_mshr_stall_cycles", issue - t);
      fill_and_remove(sm, idx);
    }
    l1_port_free_[sm] = issue + 1;
    if (is_write && (wt || !allocate)) {
      const Cycle done = access_l2(line, true, issue + p_.l1_latency, false);
      stats_.add("l1_write_through");
      if (allocate) mshr.push_back(Entry{line, done, false});
      return {done, issue + 1};
    }
    const Cycle ready = access_l2(line, false, issue + p_.l1_latency, false);
    mshr.push_back(Entry{line, ready, is_write});
    return {ready, issue + 1};
  }

  MemResponse access_atomic(u32 sm, u64 line, Cycle now) {
    const Cycle t = std::max(now, l1_port_free_[sm]);
    l1_port_free_[sm] = t + 1;
    reap(sm, t);
    auto& mshr = mshr_[sm];
    for (size_t i = 0; i < mshr.size(); ++i) {
      if (mshr[i].line == line) {
        remove_entry(sm, i);
        break;
      }
    }
    if (l1_[sm].invalidate_line(line)) writeback_to_l2(line, t);
    stats_.add("atomics");
    return {access_l2(line, true, t, true), t + 1};
  }

 private:
  struct Entry {
    u64 line;
    Cycle ready;
    bool fill_dirty;
  };
  struct Bank {
    Cycle busy_until = 0;
    u64 open_row = ~0ull;
  };

  static size_t earliest_entry(const std::vector<Entry>& mshr) {
    size_t best = 0;
    for (size_t i = 1; i < mshr.size(); ++i)
      if (mshr[i].ready < mshr[best].ready ||
          (mshr[i].ready == mshr[best].ready && mshr[i].line < mshr[best].line))
        best = i;
    return best;
  }
  void remove_entry(u32 sm, size_t idx) {
    mshr_[sm][idx] = mshr_[sm].back();
    mshr_[sm].pop_back();
  }
  void fill_and_remove(u32 sm, size_t idx) {
    const Entry e = mshr_[sm][idx];
    remove_entry(sm, idx);
    const CacheAccessResult res = l1_[sm].access(e.line, e.fill_dirty);
    if (res.writeback_line) writeback_to_l2(*res.writeback_line, e.ready);
  }
  void reap(u32 sm, Cycle now) {
    auto& mshr = mshr_[sm];
    while (!mshr.empty()) {
      const size_t best = earliest_entry(mshr);
      if (mshr[best].ready > now) return;
      fill_and_remove(sm, best);
    }
  }
  Cycle dram_access(u64 line, Cycle when, bool is_write) {
    const u32 ch = static_cast<u32>(line % p_.dram_channels);
    const u64 row = (line / p_.dram_channels) / lines_per_row_;
    Bank& bank =
        dram_banks_[static_cast<size_t>(ch) * p_.dram_banks_per_channel +
                    (row * 0x9E3779B97F4A7C15ull >> 32) %
                        p_.dram_banks_per_channel];
    const Cycle start = std::max({when, dram_channel_free_[ch], bank.busy_until});
    const bool row_hit = bank.open_row == row;
    stats_.add(row_hit ? "dram_row_hits" : "dram_row_misses");
    bank.open_row = row;
    const Cycle done =
        start + (row_hit ? p_.dram_row_hit_latency : p_.dram_row_miss_latency);
    dram_channel_free_[ch] = start + p_.dram_service;
    bank.busy_until =
        start + p_.dram_service +
        (row_hit ? 0 : p_.dram_row_miss_latency - p_.dram_row_hit_latency);
    stats_.add(is_write ? "dram_writebacks" : "dram_reads");
    return done;
  }
  void writeback_to_l2(u64 line, Cycle when) {
    const u32 bank = static_cast<u32>(line % p_.l2_banks);
    l2_bank_free_[bank] = std::max(l2_bank_free_[bank], when) + p_.l2_service;
    const CacheAccessResult res = l2_.access(line, true);
    if (res.writeback_line) dram_access(*res.writeback_line, when, true);
    stats_.add("l1_writebacks");
  }
  Cycle access_l2(u64 line, bool is_write, Cycle now, bool is_atomic) {
    const u32 bank = static_cast<u32>(line % p_.l2_banks);
    const Cycle start = std::max(now, l2_bank_free_[bank]);
    l2_bank_free_[bank] =
        start + p_.l2_service + (is_atomic ? p_.atomic_extra : 0);
    const CacheAccessResult res = l2_.access(line, is_write || is_atomic);
    if (res.writeback_line) dram_access(*res.writeback_line, start, true);
    if (res.hit) {
      stats_.add("l2_hits");
      return start + p_.l2_latency;
    }
    stats_.add("l2_misses");
    return dram_access(line, start, false);
  }

  MemParams p_;
  u32 lines_per_row_;
  std::vector<SetAssocCache> l1_;
  SetAssocCache l2_;
  std::vector<Cycle> l1_port_free_, l2_bank_free_, dram_channel_free_;
  std::vector<Bank> dram_banks_;
  std::vector<std::vector<Entry>> mshr_;
  StatSet stats_;
};

struct MshrCase {
  MemParams mp;
  u32 mshr_entries;
};

void PrintTo(const MshrCase& c, std::ostream* os) {
  *os << write_policy_name(c.mp.l1_write_policy) << ", "
      << write_alloc_name(c.mp.l1_write_alloc) << ", " << c.mshr_entries
      << " MSHR entries";
}

class HierarchyVsReference : public ::testing::TestWithParam<MshrCase> {};

TEST_P(HierarchyVsReference, RandomStreamMatchesReferenceModel) {
  MemParams mp = GetParam().mp;
  mp.l1_mshr_entries = GetParam().mshr_entries;
  mp.l1_size = 4 * 1024;  // small L1: evictions and dirty victims are common
  MemHierarchy dut(3, mp);
  RefHierarchy ref(3, mp);
  Rng rng(mp.l1_mshr_entries * 7 + static_cast<u64>(mp.l1_write_policy) * 3 +
          static_cast<u64>(mp.l1_write_alloc));
  Cycle now = 0;
  for (u32 i = 0; i < 20000; ++i) {
    // Bursts of same-cycle accesses fill the MSHR (stalls); idle gaps let
    // several fills complete at once (multi-entry reaps). A small hot set
    // makes merges, hits and atomics on in-flight lines likely.
    now += rng.next_bool(0.6f) ? 0 : rng.next_below(rng.next_bool(0.1f) ? 600 : 8);
    const u32 sm = static_cast<u32>(rng.next_below(3));
    const u64 line = rng.next_bool(0.5f) ? rng.next_below(48)
                                         : rng.next_below(1 << 12);
    MemResponse got;
    MemResponse want;
    if (rng.next_bool(0.05f)) {
      got = dut.access_atomic(sm, line, now);
      want = ref.access_atomic(sm, line, now);
    } else {
      const bool write = rng.next_bool(0.35f);
      got = dut.access_line(sm, line, write, now);
      want = ref.access_line(sm, line, write, now);
    }
    ASSERT_EQ(got.done, want.done) << "access " << i << " line " << line;
    ASSERT_EQ(got.issue_free, want.issue_free) << "access " << i;
  }
  EXPECT_EQ(dut.stats(), ref.stats());
  // The stream must have exercised what the MSHR order decides.
  EXPECT_GT(dut.stats().get("l1_mshr_merges"), 0u);
  EXPECT_GT(dut.stats().get("atomics"), 0u);
  if (mp.l1_mshr_entries <= 8) EXPECT_GT(dut.stats().get("l1_mshr_stalls"), 0u);
}

std::vector<MshrCase> mshr_cases() {
  std::vector<MshrCase> out;
  for (WritePolicy wp : {WritePolicy::kWriteBack, WritePolicy::kWriteThrough})
    for (WriteAlloc wa : {WriteAlloc::kAllocate, WriteAlloc::kNoAllocate})
      for (u32 n : {1u, 2u, 8u, 32u}) {
        MemParams mp;
        mp.l1_write_policy = wp;
        mp.l1_write_alloc = wa;
        out.push_back({mp, n});
      }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndMshrSizes, HierarchyVsReference, ::testing::ValuesIn(mshr_cases()),
    [](const auto& info) {
      const std::string l = mem_label(info.param.mp);
      std::string name = (l.empty() ? "wb_wa" : l) + "_mshr" +
                         std::to_string(info.param.mshr_entries);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

/// Lane address patterns for the coalescer and conflict-counter checks.
std::vector<u64> lane_pattern(Rng& rng, u32 kind, u64 base, u32 lanes) {
  std::vector<u64> a(lanes);
  const u64 stride = 4 * (1 + rng.next_below(64));
  for (u32 l = 0; l < lanes; ++l) {
    switch (kind) {
      case 0: a[l] = base + 4 * l; break;                       // unit stride
      case 1: a[l] = base + stride * l; break;                  // monotone stride
      case 2: a[l] = base + rng.next_below(4096); break;        // shuffled
      case 3: a[l] = base + 4 * rng.next_below(4); break;       // duplicates
      default: a[l] = base + 4 * (lanes - 1 - l); break;        // descending
    }
  }
  if (kind == 1 && rng.next_bool(0.5f))  // a monotone run with one lane swapped
    std::swap(a[rng.next_below(lanes)], a[rng.next_below(lanes)]);
  return a;
}

TEST(CoalescerVsReference, MatchesSortUniqueOnEveryPattern) {
  Rng rng(2019);
  // Line sizes include non-powers of two; bases include addresses near 2^32
  // and lanes that straddle a line boundary (base just below one).
  for (u32 line_bytes : {4u, 32u, 96u, 100u, 128u, 129u, 4096u}) {
    for (u64 base : {u64{0}, u64{124}, u64{0xFFFFFF00}, u64{0xFFFFFFFF} - 4096,
                     (u64{1} << 32) - 2, u64{1} << 32}) {
      for (u32 kind = 0; kind < 5; ++kind) {
        for (u32 iter = 0; iter < 20; ++iter) {
          const u32 lanes = 1 + static_cast<u32>(rng.next_below(32));
          const std::vector<u64> addrs = lane_pattern(rng, kind, base, lanes);
          std::vector<u64> lines(addrs.size());
          lines.resize(coalesce_into(addrs, line_bytes, lines));
          ASSERT_EQ(lines, ref_coalesce(addrs, line_bytes))
              << "line_bytes " << line_bytes << " base " << base << " kind "
              << kind;
        }
      }
    }
  }
}

TEST(CoalescerVsReference, RefusesMoreThanOneWarp) {
  const std::vector<u64> addrs(kMaxLanes + 1, 0);
  std::vector<u64> lines(addrs.size());
  EXPECT_THROW(coalesce_into(addrs, 128, lines), std::invalid_argument);
  EXPECT_THROW(smem_conflict_degree(addrs, 32), std::invalid_argument);
  const std::vector<u64> one(4, 0);
  std::vector<u64> short_out(3);
  EXPECT_THROW(coalesce_into(one, 128, short_out), std::invalid_argument);
}

TEST(SmemConflictsVsReference, MatchesPerBankCountOnEveryPattern) {
  Rng rng(17);
  for (u32 banks : {1u, 16u, 32u, 64u}) {
    for (u64 base : {u64{0}, u64{128}, (u64{1} << 32) - 64}) {
      for (u32 kind = 0; kind < 5; ++kind) {
        for (u32 iter = 0; iter < 40; ++iter) {
          const u32 lanes = static_cast<u32>(rng.next_below(33));
          const std::vector<u64> addrs = lanes == 0
                                             ? std::vector<u64>{}
                                             : lane_pattern(rng, kind, base, lanes);
          ASSERT_EQ(smem_conflict_degree(addrs, banks),
                    ref_smem_conflict_degree(addrs, banks))
              << "banks " << banks << " kind " << kind << " lanes " << lanes;
        }
      }
    }
  }
}

/// The four L1 write-policy combinations, the axis the property suite
/// sweeps: every invariant must hold under every policy.
std::vector<MemParams> policy_matrix() {
  std::vector<MemParams> out;
  for (WritePolicy wp : {WritePolicy::kWriteBack, WritePolicy::kWriteThrough}) {
    for (WriteAlloc wa : {WriteAlloc::kAllocate, WriteAlloc::kNoAllocate}) {
      MemParams mp;
      mp.l1_write_policy = wp;
      mp.l1_write_alloc = wa;
      out.push_back(mp);
    }
  }
  return out;
}

class HierarchyPolicyProperty : public ::testing::TestWithParam<MemParams> {};

TEST_P(HierarchyPolicyProperty, CompletionNeverBeforeIssue) {
  MemParams mp = GetParam();
  mp.l1_mshr_entries = 8;  // small enough that MSHR-full stalls exercise
  MemHierarchy mem(4, mp);
  Rng rng(77);
  Cycle now = 0;
  for (u32 i = 0; i < 5000; ++i) {
    now += rng.next_below(3);
    const u32 sm = static_cast<u32>(rng.next_below(4));
    const u64 line = rng.next_below(1 << 14);
    const MemResponse r =
        rng.next_bool(0.1f)
            ? mem.access_atomic(sm, line, now)
            : mem.access_line(sm, line, rng.next_bool(0.4f), now);
    ASSERT_GT(r.done, now);
    ASSERT_GT(r.issue_free, now);
    ASSERT_LT(r.done - now, 100'000u) << "latency blew up";
  }
}

TEST_P(HierarchyPolicyProperty, StatsBalance) {
  const MemParams mp = GetParam();
  MemHierarchy mem(2, mp);
  Rng rng(5);
  u64 accesses = 0;
  for (u32 i = 0; i < 3000; ++i) {
    mem.access_line(static_cast<u32>(rng.next_below(2)),
                    rng.next_below(4096), rng.next_bool(0.5f),
                    i * 2);
    ++accesses;
  }
  const StatSet& s = mem.stats();
  // Every access is classified exactly once.
  const u64 classified = s.get("l1_hits") + s.get("l1_misses") +
                         s.get("l1_write_hits") + s.get("l1_write_misses") +
                         s.get("l1_mshr_merges");
  EXPECT_EQ(classified, accesses);
  // Every L2 access originates from an L1 miss, writeback or forwarded store.
  EXPECT_LE(s.get("l2_misses"), s.get("l1_misses") + s.get("l1_write_misses") +
                                    s.get("l1_writebacks") +
                                    s.get("l1_write_through"));
  // Write-through keeps the L1 clean: no L1 writebacks, and every store
  // (hit, miss or merge) was forwarded to the L2.
  if (mp.l1_write_policy == WritePolicy::kWriteThrough) {
    EXPECT_EQ(s.get("l1_writebacks"), 0u);
    EXPECT_GE(s.get("l1_write_through"),
              s.get("l1_write_hits") + s.get("l1_write_misses"));
  }
  // A counted MSHR stall always pins at least one stall cycle and vice
  // versa (the stall target is strictly in the future).
  EXPECT_EQ(s.get("l1_mshr_stalls") == 0, s.get("l1_mshr_stall_cycles") == 0);
  // Row-buffer accounting covers every DRAM transaction.
  EXPECT_EQ(s.get("dram_row_hits") + s.get("dram_row_misses"),
            s.get("dram_reads") + s.get("dram_writebacks"));
}

INSTANTIATE_TEST_SUITE_P(
    WritePolicies, HierarchyPolicyProperty,
    ::testing::ValuesIn(policy_matrix()), [](const auto& info) {
      const std::string l = mem_label(info.param);
      std::string name = l.empty() ? "wb_wa" : l;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(HierarchyProperty, HitLatencyIsBoundedByMissLatency) {
  MemParams mp;
  MemHierarchy mem(1, mp);
  // Cold miss then repeated hits: hits must be uniformly cheaper.
  const Cycle miss = mem.access_line(0, 42, false, 1000).done - 1000;
  for (u32 i = 0; i < 10; ++i) {
    const Cycle t = 100'000 + i * 1000;
    const Cycle hit = mem.access_line(0, 42, false, t).done - t;
    ASSERT_LT(hit, miss);
  }
}

}  // namespace
}  // namespace higpu::memsys
