// Set-associative cache tag array with true-LRU replacement.
//
// This models tags/state only; data always lives in the functional global
// store. Timing is composed by MemHierarchy.
#pragma once

#include <optional>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"

namespace higpu::memsys {

/// Result of a cache access.
struct CacheAccessResult {
  bool hit = false;
  /// Line address of a dirty line evicted by the fill (if any).
  std::optional<u64> writeback_line;
};

class SetAssocCache {
 public:
  /// size/line_bytes must be divisible by assoc.
  SetAssocCache(u32 size_bytes, u32 assoc, u32 line_bytes);

  /// Probe + fill on miss. `is_write` marks the line dirty.
  CacheAccessResult access(u64 line_addr, bool is_write);

  /// Hit-path-only access: if the line is present, refresh its LRU state
  /// (and mark it dirty when requested) and return true; a miss changes
  /// nothing. Lets MemHierarchy defer fills to MSHR completion.
  bool touch(u64 line_addr, bool mark_dirty);

  /// Probe without state change.
  bool probe(u64 line_addr) const;

  /// Invalidate everything (e.g. between independent simulations).
  void clear();

  /// Drop one line if present, returning whether it was dirty.
  bool invalidate_line(u64 line_addr);

  u32 assoc() const { return assoc_; }

  // Checkpoint: the tag array set-by-set (fixed-size records so a snapshot
  // diff can name the first divergent set), then the LRU use counter.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);
  /// Serialized bytes per set — the snapshot section's record size.
  u64 set_record_bytes() const { return kWayBytes * assoc_; }

 private:
  /// Serialized bytes of one way: valid, dirty, tag, LRU stamp.
  static constexpr size_t kWayBytes = 18;

  struct Way {
    bool valid = false;
    bool dirty = false;
    u64 tag = 0;
    u64 lru = 0;  // larger = more recently used
  };

  u32 set_of(u64 line_addr) const { return static_cast<u32>(line_addr % num_sets_); }
  u64 tag_of(u64 line_addr) const { return line_addr / num_sets_; }

  u32 num_sets_;
  u32 assoc_;
  u64 use_counter_ = 0;
  std::vector<Way> ways_;  // num_sets_ * assoc_
};

}  // namespace higpu::memsys
