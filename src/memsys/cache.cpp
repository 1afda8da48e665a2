#include "memsys/cache.h"

#include <cassert>

namespace higpu::memsys {

SetAssocCache::SetAssocCache(u32 size_bytes, u32 assoc, u32 line_bytes)
    : num_sets_(size_bytes / line_bytes / assoc), assoc_(assoc) {
  assert(num_sets_ > 0);
  ways_.resize(static_cast<size_t>(num_sets_) * assoc_);
}

CacheAccessResult SetAssocCache::access(u64 line_addr, bool is_write) {
  const u32 set = set_of(line_addr);
  const u64 tag = tag_of(line_addr);
  Way* base = &ways_[static_cast<size_t>(set) * assoc_];

  // Hit path.
  for (u32 w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = ++use_counter_;
      if (is_write) way.dirty = true;
      return {.hit = true, .writeback_line = std::nullopt};
    }
  }

  // Miss: pick invalid way, else LRU victim.
  Way* victim = nullptr;
  for (u32 w = 0; w < assoc_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
  }
  if (victim == nullptr) {
    victim = &base[0];
    for (u32 w = 1; w < assoc_; ++w)
      if (base[w].lru < victim->lru) victim = &base[w];
  }

  CacheAccessResult res;
  if (victim->valid && victim->dirty)
    res.writeback_line = victim->tag * num_sets_ + set;

  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru = ++use_counter_;
  return res;
}

bool SetAssocCache::touch(u64 line_addr, bool mark_dirty) {
  const u32 set = set_of(line_addr);
  const u64 tag = tag_of(line_addr);
  Way* base = &ways_[static_cast<size_t>(set) * assoc_];
  for (u32 w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = ++use_counter_;
      if (mark_dirty) way.dirty = true;
      return true;
    }
  }
  return false;
}

bool SetAssocCache::probe(u64 line_addr) const {
  const u32 set = set_of(line_addr);
  const u64 tag = tag_of(line_addr);
  const Way* base = &ways_[static_cast<size_t>(set) * assoc_];
  for (u32 w = 0; w < assoc_; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

void SetAssocCache::clear() {
  for (Way& w : ways_) w = Way{};
  use_counter_ = 0;
}

void SetAssocCache::save(ckpt::Writer& w) const {
  u8* p = w.extend(ways_.size() * kWayBytes);
  for (const Way& way : ways_) {
    p[0] = way.valid ? 1 : 0;
    p[1] = way.dirty ? 1 : 0;
    ckpt::store_le<8>(p + 2, way.tag);
    ckpt::store_le<8>(p + 10, way.lru);
    p += kWayBytes;
  }
  w.put64(use_counter_);
}

void SetAssocCache::restore(ckpt::Reader& r) {
  const u8* p = r.take(ways_.size() * kWayBytes);
  for (Way& way : ways_) {
    way.valid = p[0] != 0;
    way.dirty = p[1] != 0;
    way.tag = ckpt::load_le<8>(p + 2);
    way.lru = ckpt::load_le<8>(p + 10);
    p += kWayBytes;
  }
  use_counter_ = r.get64();
}

bool SetAssocCache::invalidate_line(u64 line_addr) {
  const u32 set = set_of(line_addr);
  const u64 tag = tag_of(line_addr);
  Way* base = &ways_[static_cast<size_t>(set) * assoc_];
  for (u32 w = 0; w < assoc_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      const bool dirty = base[w].dirty;
      base[w] = Way{};
      return dirty;
    }
  }
  return false;
}

}  // namespace higpu::memsys
