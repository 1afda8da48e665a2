// Functional backing store for GPU global memory, plus a bump allocator.
//
// Addresses are 32-bit (registers are 32-bit wide); the store grows lazily.
//
// Checkpoints are copy-on-write at page granularity (ckpt::kStorePageBytes).
// The store stays one flat byte array for the simulator's reads and writes;
// beside it, it keeps the page images of its last capture or restore and a
// dirty bit per page. A write marks its pages dirty. A capture re-images the
// dirty pages and pages whose length changed (growth), and shares every
// other image with the previous capture.
#pragma once

#include <vector>

#include "ckpt/serial.h"
#include "ckpt/snapshot.h"
#include "common/types.h"

namespace higpu::memsys {

/// Device address. 0 is reserved (never returned by alloc).
using DevPtr = u32;

class GlobalStore {
 public:
  explicit GlobalStore(u64 capacity_bytes = 1ull << 30);

  /// Allocate `bytes` (256-byte aligned). Throws std::bad_alloc on exhaustion.
  DevPtr alloc(u64 bytes);

  /// Release all allocations (arena-style reset). Contents are kept so old
  /// pointers read stale data rather than faulting; callers should not use
  /// pointers across a reset.
  void reset();

  /// Bytes currently allocated.
  u64 allocated() const { return next_ - kBase; }

  // 32-bit word access (addresses must be 4-byte aligned).
  u32 read32(DevPtr addr) const;
  void write32(DevPtr addr, u32 value);

  // Bulk transfer helpers used by the host runtime.
  void write_block(DevPtr dst, const void* src, u64 bytes);
  void read_block(void* dst, DevPtr src, u64 bytes) const;

  // Checkpoint: save() writes the allocator cursor and the store size and
  // returns the contents as page images; restore() reads them back.
  std::vector<ckpt::ImagePtr> save(ckpt::Writer& w);
  /// Throws ckpt::SnapshotError when `pages` do not tile the saved size.
  void restore(ckpt::Reader& r, const std::vector<ckpt::ImagePtr>& pages);

  /// Page images created by save() so far (deterministic: it counts the
  /// pages written or grown between captures, not host work).
  u64 pages_imaged() const { return pages_imaged_; }

 private:
  static constexpr DevPtr kBase = 256;  // keep nullptr-like 0 unmapped
  static constexpr u64 kPageShift = 12;
  static_assert(u64{1} << kPageShift == ckpt::kStorePageBytes);

  void ensure(u64 end);

  u64 capacity_;
  DevPtr next_ = kBase;
  mutable std::vector<u8> data_;
  /// Images of the last save()/restore(), page by page, and parallel dirty
  /// bits. Pages past the end of `images_` are new and always imaged.
  std::vector<ckpt::ImagePtr> images_;
  std::vector<u8> dirty_;
  u64 pages_imaged_ = 0;
};

}  // namespace higpu::memsys
