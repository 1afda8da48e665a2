// Analytic timing model of the L1 / L2 / DRAM hierarchy.
//
// Cache tag state is updated at well-defined lifecycle points: hits refresh
// LRU at issue time, but a missing line enters the L1 only when its in-flight
// fill completes (tracked by an MSHR entry per outstanding miss). Completion
// cycles are computed through per-resource `next_free` bandwidth counters
// (L1 port, L2 banks, DRAM channel buses and per-bank row buffers). The
// model is deterministic and order-sensitive: contention between SMs emerges
// from shared L2/DRAM counters, which is the level of fidelity the
// scheduling-policy study needs.
//
// MSHR lifecycle contract:
//  * every access first reaps *all* fills that have completed by then (in
//    completion order), performing their L1 fills and victim writebacks —
//    stale entries never pin MSHR capacity;
//  * an access to a line with an in-flight fill merges into the entry; a
//    merging store retires into the arriving line (the entry's fill is
//    marked dirty) instead of touching the tag array early;
//  * when every MSHR entry is in flight, a new miss stalls until the
//    earliest entry frees (counted in l1_mshr_stalls/stall_cycles) and the
//    SM's LSU is blocked for the duration (MemResponse::issue_free).
//
// L1 write policy (MemParams): write-back keeps dirty lines and writes them
// to the L2 on eviction; write-through forwards every store to the L2 (no
// dirty L1 lines). Write-allocate fetches a written line through the MSHR
// path; no-allocate leaves the L1 untouched on a write miss. The L2 is
// always write-back/write-allocate.
//
// Event-driven contract: every access returns the exact cycle at which it
// completes, decided fully at issue time and never revised afterwards. The
// SM records that cycle on the destination register's scoreboard entry, and
// the scoreboard release becomes a wake event in the GPU's event heap —
// memory responses are *pushed* into the simulation core's timeline; nothing
// ever polls the hierarchy for completion. MSHR-full backpressure reaches
// the core the same way: issue_free feeds the SM's LSU next-free counter,
// so a structural-stall wake event fires when the MSHR frees.
#pragma once

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "memsys/cache.h"
#include "memsys/params.h"
#include "obs/trace.h"

namespace higpu::memsys {

/// Timing outcome of one line access, fixed at issue time.
struct MemResponse {
  /// Cycle at which the data is available in the SM (loads) or globally
  /// visible (stores) — the scoreboard release cycle.
  Cycle done = 0;
  /// Earliest cycle this SM's LSU may issue its next memory transaction.
  /// Normally issue+1; later when an MSHR-full stall held the L1 port.
  Cycle issue_free = 0;
};

class MemHierarchy {
 public:
  MemHierarchy(u32 num_sms, const MemParams& params);

  /// Access one cache line from SM `sm` at cycle `now`.
  MemResponse access_line(u32 sm, u64 line_addr, bool is_write, Cycle now);

  /// Atomic read-modify-write on one line: bypasses L1, resolves at L2.
  MemResponse access_atomic(u32 sm, u64 line_addr, Cycle now);

  /// Invalidate all cache state and bandwidth counters (fresh simulation).
  void reset();

  /// Checkpoint the full hierarchy state: per-SM L1 tag arrays (one snapshot
  /// section each, set-granular), the L2, DRAM bank/row state (bank-granular
  /// section), and a bookkeeping section (port/bank/channel bandwidth
  /// counters, MSHRs, statistics). Restore requires the same geometry.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  /// Attach (or detach, with nullptr) the observability tracer: one device
  /// track for DRAM bank busy spans plus one MSHR track per SM. Pure
  /// observer — no timing or tag state is touched.
  void set_obs_tracer(obs::Tracer* t);

  const MemParams& params() const { return params_; }
  /// Statistics snapshot. Counters are kept as plain integers (a map lookup
  /// per access would dominate memory-bound simulations) and exported here
  /// under their original names.
  StatSet stats() const;

 private:
  /// L2 + DRAM path; returns data-ready cycle at the L2 boundary.
  Cycle access_l2(u64 line_addr, bool is_write, Cycle now, bool is_atomic);
  /// Banked DRAM with row buffers; returns data-ready cycle.
  Cycle dram_access(u64 line_addr, Cycle when, bool is_write);
  /// Dirty L1 victim -> L2 (bank bandwidth; may cascade an L2->DRAM
  /// writeback). Off the critical path of the access that evicted it.
  void writeback_to_l2(u64 line_addr, Cycle when);

  // Per-SM MSHR: one entry per outstanding L1 fill, kept sorted by
  // (ready, line), the one deterministic order shared by reaping, MSHR-full
  // stalls and the snapshot. Lines are distinct (a second miss on an
  // in-flight line merges), so the order is total. Flat storage: at most
  // l1_mshr_entries (~32) entries, and a new fill usually completes last, so
  // insertion scans back from the end and the due entries are a prefix.
  struct MshrEntry {
    u64 line;
    Cycle ready;      // fill-completion cycle, fixed at allocation
    bool fill_dirty;  // a store merged in flight: fill installs the line dirty

    template <FieldsOf<MshrEntry> S, class V>
    friend void visit_fields(S& e, V&& v) {
      v("line", e.line);
      v("ready", e.ready);
      v("fill_dirty", e.fill_dirty);
    }
  };
  /// Insert `e` at its (ready, line) position.
  void insert_entry(u32 sm, const MshrEntry& e);
  /// Perform `e`'s L1 fill (victim writeback included). The caller drops
  /// the entry.
  void fill(u32 sm, const MshrEntry& e);
  /// Fill + drop every entry with ready <= now, in completion order: the
  /// due prefix of the sorted MSHR. An access with nothing due costs one
  /// compare.
  void reap_expired(u32 sm, Cycle now);

  MemParams params_;
  u32 lines_per_row_;                      // dram_row_bytes / line_bytes
  std::vector<SetAssocCache> l1_;          // one per SM
  SetAssocCache l2_;
  std::vector<Cycle> l1_port_free_;        // per SM
  std::vector<Cycle> l2_bank_free_;        // per bank
  std::vector<Cycle> dram_channel_free_;   // per channel (data bus)
  static constexpr u64 kNoOpenRow = ~0ull;
  struct DramBank {
    Cycle busy_until = 0;
    u64 open_row = kNoOpenRow;

    template <FieldsOf<DramBank> S, class V>
    friend void visit_fields(S& b, V&& v) {
      v("busy_until", b.busy_until);
      v("open_row", b.open_row);
    }
  };
  std::vector<DramBank> dram_banks_;       // channels * banks_per_channel
  std::vector<std::vector<MshrEntry>> mshr_;

  obs::Tracer* obs_ = nullptr;
  u32 obs_dram_track_ = 0;
  std::vector<u32> obs_mshr_tracks_;       // per SM

  u64 l1_hits_ = 0, l1_misses_ = 0;
  u64 l1_write_hits_ = 0, l1_write_misses_ = 0;
  u64 l1_mshr_merges_ = 0, l1_writebacks_ = 0;
  u64 l1_mshr_stalls_ = 0, l1_mshr_stall_cycles_ = 0;
  u64 l1_write_through_ = 0;  // stores forwarded to the L2 (WT or no-allocate)
  u64 l2_hits_ = 0, l2_misses_ = 0;
  u64 dram_reads_ = 0, dram_writebacks_ = 0;
  u64 dram_row_hits_ = 0, dram_row_misses_ = 0;
  u64 atomics_ = 0;

  /// The "memsys" snapshot section: bandwidth counters, MSHRs (entries in
  /// their (ready, line) order) and statistics.
  template <FieldsOf<MemHierarchy> S, class V>
  friend void visit_fields(S& m, V&& v) {
    v("dram_channel_free", m.dram_channel_free_);
    v("l1_port_free", m.l1_port_free_);
    v("l2_bank_free", m.l2_bank_free_);
    // One MSHR per SM. Each is held to l1_mshr_entries as soon as it is
    // read, so a restore names an over-long one instead of misreading the
    // next SM's as garbage.
    u64 n = m.mshr_.size();
    v("mshr_count", n);
    if (n != m.mshr_.size())
      throw ckpt::SnapshotError("snapshot MSHR array count mismatch");
    for (auto& mshr : m.mshr_) {
      v("mshr", mshr);
      if (mshr.size() > m.params_.l1_mshr_entries)
        throw ckpt::SnapshotError(
            "snapshot MSHR holds " + std::to_string(mshr.size()) +
            " entries, more than l1_mshr_entries (" +
            std::to_string(m.params_.l1_mshr_entries) + ")");
    }
    visit_counters(m, v);
  }
  /// The statistics counters, named as stats() reports them.
  template <FieldsOf<MemHierarchy> S, class V>
  static void visit_counters(S& m, V&& v) {
    v("l1_hits", m.l1_hits_);
    v("l1_misses", m.l1_misses_);
    v("l1_write_hits", m.l1_write_hits_);
    v("l1_write_misses", m.l1_write_misses_);
    v("l1_mshr_merges", m.l1_mshr_merges_);
    v("l1_writebacks", m.l1_writebacks_);
    v("l1_mshr_stalls", m.l1_mshr_stalls_);
    v("l1_mshr_stall_cycles", m.l1_mshr_stall_cycles_);
    v("l1_write_through", m.l1_write_through_);
    v("l2_hits", m.l2_hits_);
    v("l2_misses", m.l2_misses_);
    v("dram_reads", m.dram_reads_);
    v("dram_writebacks", m.dram_writebacks_);
    v("dram_row_hits", m.dram_row_hits_);
    v("dram_row_misses", m.dram_row_misses_);
    v("atomics", m.atomics_);
  }
};

}  // namespace higpu::memsys
