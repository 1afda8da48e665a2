// Functional backing store for GPU global memory, plus a bump allocator.
//
// Addresses are 32-bit (registers are 32-bit wide) and wrap modulo 2^32.
// The store is one page table: 4 KiB pages (ckpt::kStorePageBytes), each a
// ckpt::Image, found through 1024 directory entries of 1024-page leaves.
// A page exists once something is written to it; an unwritten page reads as
// zeros and allocates nothing, so a write to a fault-corrupted address
// costs one page (and the first time in its 4 MiB range, one leaf).
//
// The pages are also the checkpoint images. A capture hands out the page
// pointers, and a restore adopts a snapshot's; neither copies a byte. A
// write to a page a snapshot may share copies the page first. A per-page
// `owned` flag decides: it is set when the store creates or copies a page
// and cleared at capture and restore. (Not the pointer's use count:
// snapshots cross campaign threads, and use_count() reads race.)
//
// Beside the pages the store keeps its extent: the high-water mark of every
// alloc, read and write. That is the size the store would have as one flat
// byte array grown to cover every access, and the store's share of
// ckpt::Snapshot::size_bytes().
#pragma once

#include <array>
#include <bitset>
#include <memory>

#include "ckpt/serial.h"
#include "ckpt/snapshot.h"
#include "common/types.h"

namespace higpu::memsys {

/// Device address. 0 is reserved (never returned by alloc).
using DevPtr = u32;

class GlobalStore {
 public:
  /// Allocate `bytes` (256-byte aligned). Throws std::bad_alloc past 1 GiB.
  DevPtr alloc(u64 bytes);

  /// Bytes currently allocated.
  u64 allocated() const { return next_ - kBase; }

  // 32-bit word access. A word need not be aligned: one that straddles two
  // pages, or the end of the address space, goes through the block path.
  u32 read32(DevPtr addr) const;
  void write32(DevPtr addr, u32 value);

  // Bulk transfer helpers used by the host runtime.
  void write_block(DevPtr dst, const void* src, u64 bytes);
  void read_block(void* dst, DevPtr src, u64 bytes) const;

  /// High-water mark of every alloc, read and write (at most 2^32).
  u64 extent() const { return extent_; }

  // Checkpoint: save() writes the allocator cursor and the extent and fills
  // `snap`'s store pages and extent; restore() reads them back.
  void save(ckpt::Writer& w, ckpt::Snapshot& snap);
  /// Throws ckpt::SnapshotError when `snap`'s store pages are malformed
  /// (see ckpt::check_store_pages) or its store_extent is not the saved one.
  void restore(ckpt::Reader& r, const ckpt::Snapshot& snap);

  /// Pages hashed by save() so far: those written since the previous save
  /// or restore (deterministic: it counts pages, not host work).
  u64 pages_imaged() const { return pages_imaged_; }

 private:
  static constexpr DevPtr kBase = 256;  // keep nullptr-like 0 unmapped
  static constexpr u64 kCapacity = 1ull << 30;
  static constexpr u32 kPageShift = 12;
  static constexpr u32 kPageMask = (1u << kPageShift) - 1;
  static_assert(u64{1} << kPageShift == ckpt::kStorePageBytes);
  static constexpr u32 kLeafShift = 10;
  static constexpr u32 kLeafPages = 1u << kLeafShift;
  static constexpr u32 kLeafMask = kLeafPages - 1;
  static constexpr u32 kLeaves = ckpt::kStorePages >> kLeafShift;

  /// 1024 consecutive pages. `bytes` is what reads and writes look up:
  /// null until a page is first written, and written in place only while
  /// the page is `owned`; otherwise a snapshot may hold it and it never
  /// changes. `pages` holds the images the bytes live in.
  struct Leaf {
    std::array<u8*, kLeafPages> bytes{};
    std::array<std::shared_ptr<ckpt::Image>, kLeafPages> pages;
    std::bitset<kLeafPages> owned;
  };

  /// Bytes of page `index`, or null when it was never written.
  const u8* page_bytes(u32 index) const;
  /// Bytes of page `index`, created or copied first unless owned.
  u8* writable_page(u32 index);
  /// Leaf `d`, allocated on first use.
  Leaf& leaf(u32 d);
  /// Raise the extent to `end` (capped at the 4 GiB address space).
  void reach(u64 end) const;

  /// The "store" snapshot section; the pages travel beside the blob.
  template <FieldsOf<GlobalStore> S, class V>
  friend void visit_fields(S& g, V&& v) {
    v("next", g.next_);
    v("extent", g.extent_);
  }

  std::array<std::unique_ptr<Leaf>, kLeaves> dir_;
  DevPtr next_ = kBase;
  mutable u64 extent_ = 0;  // const reads raise it too
  u64 pages_imaged_ = 0;
};

}  // namespace higpu::memsys
