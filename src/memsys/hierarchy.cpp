#include "memsys/hierarchy.h"

#include <algorithm>

namespace higpu::memsys {

MemHierarchy::MemHierarchy(u32 num_sms, const MemParams& params)
    // Reject nonsensical geometry before any member computes with it
    // (lines_per_row_ divides by line_bytes; the DRAM model subtracts the
    // row latencies): validate() throws std::invalid_argument.
    : params_((validate(params), params)),
      lines_per_row_(params.dram_row_bytes / params.line_bytes),
      l2_(params.l2_size, params.l2_assoc, params.line_bytes),
      l1_port_free_(num_sms, 0),
      l2_bank_free_(params.l2_banks, 0),
      dram_channel_free_(params.dram_channels, 0),
      dram_banks_(static_cast<size_t>(params.dram_channels) *
                  params.dram_banks_per_channel),
      mshr_(num_sms) {
  for (auto& m : mshr_) m.reserve(params.l1_mshr_entries);
  l1_.reserve(num_sms);
  for (u32 i = 0; i < num_sms; ++i)
    l1_.emplace_back(params.l1_size, params.l1_assoc, params.line_bytes);
}

void MemHierarchy::set_obs_tracer(obs::Tracer* t) {
  obs_ = t;
  obs_dram_track_ = 0;
  obs_mshr_tracks_.clear();
  if (t == nullptr) return;
  obs_dram_track_ = t->track("dram", obs::kPidDevice);
  obs_mshr_tracks_.reserve(mshr_.size());
  for (size_t i = 0; i < mshr_.size(); ++i)
    obs_mshr_tracks_.push_back(
        t->track("mshr.sm" + std::to_string(i), obs::kPidDevice));
}

void MemHierarchy::reset() {
  for (auto& c : l1_) c.clear();
  l2_.clear();
  std::fill(l1_port_free_.begin(), l1_port_free_.end(), 0);
  std::fill(l2_bank_free_.begin(), l2_bank_free_.end(), 0);
  std::fill(dram_channel_free_.begin(), dram_channel_free_.end(), 0);
  std::fill(dram_banks_.begin(), dram_banks_.end(), DramBank{});
  for (auto& m : mshr_) m.clear();
  visit_counters(*this, [](const char*, u64& c, FieldTag = FieldTag::kNone) {
    c = 0;
  });
}

StatSet MemHierarchy::stats() const {
  StatSet s;
  // Counters appear only once nonzero, mirroring StatSet entries that were
  // created on first add().
  visit_counters(*this, [&s](const char* name, u64 v,
                             FieldTag = FieldTag::kNone) {
    if (v != 0) s.add(name, v);
  });
  return s;
}

Cycle MemHierarchy::dram_access(u64 line_addr, Cycle when, bool is_write) {
  const u32 ch = static_cast<u32>(line_addr % params_.dram_channels);
  // Lines stripe across channels; within a channel, `lines_per_row_`
  // consecutive lines share a row. The row index is hashed into the bank
  // index (a bank-permutation scheme, as real controllers use) so streams
  // at power-of-two offsets spread across banks instead of thrashing one —
  // row-locality for streaming, bank-level parallelism across streams.
  const u64 row = (line_addr / params_.dram_channels) / lines_per_row_;
  const size_t bank_idx =
      static_cast<size_t>(ch) * params_.dram_banks_per_channel +
      (row * 0x9E3779B97F4A7C15ull >> 32) % params_.dram_banks_per_channel;
  DramBank& bank = dram_banks_[bank_idx];
  const Cycle start =
      std::max({when, dram_channel_free_[ch], bank.busy_until});
  const bool row_hit = bank.open_row == row;
  (row_hit ? dram_row_hits_ : dram_row_misses_) += 1;
  bank.open_row = row;
  const Cycle done = start + (row_hit ? params_.dram_row_hit_latency
                                      : params_.dram_row_miss_latency);
  dram_channel_free_[ch] = start + params_.dram_service;  // data-bus slot
  // Bank occupancy: one service slot, plus the precharge/activate overhead
  // on a row switch. Row hits stream at bus rate; row thrash serializes.
  bank.busy_until =
      start + params_.dram_service +
      (row_hit ? 0 : params_.dram_row_miss_latency - params_.dram_row_hit_latency);
  (is_write ? dram_writebacks_ : dram_reads_) += 1;
  if (obs_ != nullptr)
    obs_->emit(obs_dram_track_, obs::Ev::kDramBank, start,
               bank.busy_until - start, bank_idx, row);
  return done;
}

void MemHierarchy::writeback_to_l2(u64 line_addr, Cycle when) {
  // Consumes L2 bank bandwidth only (off the evicting access's critical
  // path). Installing the victim may in turn evict a dirty L2 line, which
  // cascades to a DRAM writeback.
  const u32 bank = static_cast<u32>(line_addr % params_.l2_banks);
  l2_bank_free_[bank] =
      std::max(l2_bank_free_[bank], when) + params_.l2_service;
  const CacheAccessResult res = l2_.access(line_addr, /*is_write=*/true);
  if (res.writeback_line) dram_access(*res.writeback_line, when, true);
  l1_writebacks_ += 1;
}

Cycle MemHierarchy::access_l2(u64 line_addr, bool is_write, Cycle now,
                              bool is_atomic) {
  const u32 bank = static_cast<u32>(line_addr % params_.l2_banks);
  const u32 service =
      params_.l2_service + (is_atomic ? params_.atomic_extra : 0);
  const Cycle start = std::max(now, l2_bank_free_[bank]);
  l2_bank_free_[bank] = start + service;

  const CacheAccessResult res = l2_.access(line_addr, is_write || is_atomic);
  if (res.writeback_line) {
    // Dirty eviction: consumes DRAM bandwidth but is off the critical path.
    dram_access(*res.writeback_line, start, true);
  }
  if (res.hit) {
    l2_hits_ += 1;
    return start + params_.l2_latency;
  }
  l2_misses_ += 1;
  return dram_access(line_addr, start, false);
}

void MemHierarchy::insert_entry(u32 sm, const MshrEntry& e) {
  auto& mshr = mshr_[sm];
  const auto before = [&e](const MshrEntry& o) {
    return o.ready < e.ready || (o.ready == e.ready && o.line < e.line);
  };
  if (mshr.empty() || before(mshr.back())) {  // completes last: the usual case
    mshr.push_back(e);
    return;
  }
  auto pos = mshr.end() - 1;
  while (pos != mshr.begin() && !before(pos[-1])) --pos;
  mshr.insert(pos, e);
}

void MemHierarchy::fill(u32 sm, const MshrEntry& e) {
  if (obs_ != nullptr)
    obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrFill, e.ready, e.line,
                  e.fill_dirty);
  // The fill installs the line at its completion cycle; a dirty victim's
  // writeback is charged at that same cycle (it leaves with the fill).
  const CacheAccessResult res = l1_[sm].access(e.line, e.fill_dirty);
  if (res.writeback_line) writeback_to_l2(*res.writeback_line, e.ready);
}

void MemHierarchy::reap_expired(u32 sm, Cycle now) {
  auto& mshr = mshr_[sm];
  // Fill in completion order so the L1's LRU state reflects arrival times.
  size_t due = 0;
  while (due < mshr.size() && mshr[due].ready <= now) fill(sm, mshr[due++]);
  if (due != 0) mshr.erase(mshr.begin(), mshr.begin() + due);
}

MemResponse MemHierarchy::access_line(u32 sm, u64 line_addr, bool is_write,
                                      Cycle now) {
  // The cycles returned here are final (the event-driven contract in the
  // header): all contention is resolved now, against the bandwidth counters
  // as of `now`, so the caller can sleep until them without re-checking.
  // L1 port: one line transaction per cycle per SM.
  const Cycle t = std::max(now, l1_port_free_[sm]);
  const bool write_through =
      params_.l1_write_policy == WritePolicy::kWriteThrough;

  auto& mshr = mshr_[sm];
  reap_expired(sm, t);

  // Merge into an in-flight fill (MSHR hit): no new fetch traffic.
  for (MshrEntry& e : mshr) {
    if (e.line != line_addr) continue;  // reap left only entries ready > t
    l1_mshr_merges_ += 1;
    Cycle done = e.ready;
    if (is_write) {
      if (write_through) {
        // The store still goes through to the L2; the fill stays clean.
        done = access_l2(line_addr, true, t + params_.l1_latency, false);
        l1_write_through_ += 1;
      } else {
        // Retire the store into the arriving line: the fill installs it
        // dirty. The tag array is not touched until the fill completes.
        e.fill_dirty = true;
      }
    }
    l1_port_free_[sm] = t + 1;
    return {done, t + 1};
  }

  // L1 tag lookup. Hits refresh LRU (and dirtiness under write-back);
  // misses never fill here — lines enter the L1 only via MSHR completion.
  if (l1_[sm].touch(line_addr, is_write && !write_through)) {
    (is_write ? l1_write_hits_ : l1_hits_) += 1;
    Cycle done = t + params_.l1_latency;
    if (is_write && write_through) {
      done = access_l2(line_addr, true, t + params_.l1_latency, false);
      l1_write_through_ += 1;
    }
    l1_port_free_[sm] = t + 1;
    return {done, t + 1};
  }
  (is_write ? l1_write_misses_ : l1_misses_) += 1;

  // Reads always allocate; writes allocate per the L1 policy.
  const bool allocate =
      !is_write || params_.l1_write_alloc == WriteAlloc::kAllocate;

  Cycle issue = t;
  if (allocate && mshr.size() >= params_.l1_mshr_entries) {
    // MSHR full: the access occupies the L1 port until the earliest
    // in-flight fill frees its entry, then proceeds as a tracked miss.
    issue = mshr.front().ready;  // > t, otherwise reap would have taken it
    l1_mshr_stalls_ += 1;
    l1_mshr_stall_cycles_ += issue - t;
    fill(sm, mshr.front());
    mshr.erase(mshr.begin());
  }
  l1_port_free_[sm] = issue + 1;

  if (is_write && (write_through || !allocate)) {
    // The store itself resolves at the L2.
    const Cycle done =
        access_l2(line_addr, true, issue + params_.l1_latency, false);
    l1_write_through_ += 1;
    if (allocate) {  // WT + write-allocate: the same transaction fills the L1
      insert_entry(sm, MshrEntry{line_addr, done, false});
      if (obs_ != nullptr)
        obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrAlloc, issue,
                      line_addr, done);
    }
    return {done, issue + 1};
  }

  // Read miss, or write-back/write-allocate store miss: fetch the line.
  // The fetch is a read at the L2 (the dirty data lives in the L1 until
  // eviction); the store retires when the line arrives.
  const Cycle ready =
      access_l2(line_addr, false, issue + params_.l1_latency, false);
  insert_entry(sm, MshrEntry{line_addr, ready, is_write});
  if (obs_ != nullptr)
    obs_->instant(obs_mshr_tracks_[sm], obs::Ev::kMshrAlloc, issue, line_addr,
                  ready);
  return {ready, issue + 1};
}

MemResponse MemHierarchy::access_atomic(u32 sm, u64 line_addr, Cycle now) {
  // Atomics bypass the L1; a stale local copy is invalidated (flushing it
  // to the L2 first when dirty, so the write is not silently dropped).
  const Cycle t = std::max(now, l1_port_free_[sm]);
  l1_port_free_[sm] = t + 1;
  reap_expired(sm, t);
  // Cancel an in-flight fill of this line: the atomic supersedes it, and a
  // later reap must not reinstall a copy the invalidation just removed.
  // (Loads merged on the entry keep their completion cycles — fixed at
  // issue; a merged store's data is functionally visible already.)
  auto& mshr = mshr_[sm];
  const auto it = std::find_if(
      mshr.begin(), mshr.end(),
      [line_addr](const MshrEntry& e) { return e.line == line_addr; });
  if (it != mshr.end()) mshr.erase(it);
  if (l1_[sm].invalidate_line(line_addr)) writeback_to_l2(line_addr, t);
  atomics_ += 1;
  return {access_l2(line_addr, /*is_write=*/true, t, /*is_atomic=*/true),
          t + 1};
}

void MemHierarchy::save(ckpt::Writer& w) const {
  for (size_t i = 0; i < l1_.size(); ++i) {
    w.begin_section("l1[" + std::to_string(i) + "]",
                    l1_[i].set_record_bytes());
    l1_[i].save(w);
    w.end_section();
  }
  w.begin_section("l2", l2_.set_record_bytes());
  l2_.save(w);
  w.end_section();

  // The dram section holds bank records only (fixed 16-byte records), so a
  // snapshot diff maps its first differing byte to a real bank index;
  // channel-bus bandwidth counters live in the bookkeeping section.
  w.begin_section("dram", /*record_size=*/16);
  for (const DramBank& b : dram_banks_) ckpt::put_fields(w, b);
  w.end_section();

  w.begin_section("memsys");
  ckpt::put_fields(w, *this);
  w.end_section();
}

void MemHierarchy::restore(ckpt::Reader& r) {
  for (size_t i = 0; i < l1_.size(); ++i) {
    r.enter_section("l1[" + std::to_string(i) + "]");
    l1_[i].restore(r);
    r.leave_section();
  }
  r.enter_section("l2");
  l2_.restore(r);
  r.leave_section();

  const ckpt::FieldPath dram{"dram"};
  r.enter_section("dram");
  for (DramBank& b : dram_banks_) ckpt::get_fields(r, b, dram);
  r.leave_section();

  r.enter_section("memsys");
  ckpt::get_fields(r, *this, ckpt::FieldPath{"memsys"});
  for (const auto& mshr : mshr_) {
    // A line is in flight at most once, and the (ready, line) order is what
    // reaping and MSHR-full stalls rely on.
    for (size_t i = 0; i < mshr.size(); ++i)
      for (size_t j = i + 1; j < mshr.size(); ++j)
        if (mshr[i].line == mshr[j].line)
          throw ckpt::SnapshotError("snapshot MSHR holds line " +
                                    std::to_string(mshr[i].line) + " twice");
    for (size_t i = 1; i < mshr.size(); ++i) {
      const MshrEntry& a = mshr[i - 1];
      const MshrEntry& b = mshr[i];
      if (a.ready > b.ready || (a.ready == b.ready && a.line > b.line))
        throw ckpt::SnapshotError(
            "snapshot MSHR entries out of (ready, line) order");
    }
  }
  r.leave_section();
}

}  // namespace higpu::memsys
