#include "memsys/global_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace higpu::memsys {

GlobalStore::GlobalStore(u64 capacity_bytes) : capacity_(capacity_bytes) {}

DevPtr GlobalStore::alloc(u64 bytes) {
  const u64 start = align_up(next_, 256);
  const u64 end = start + align_up(bytes, 4);
  if (end > capacity_ || end > 0xFFFFFFFFull) throw std::bad_alloc();
  next_ = static_cast<DevPtr>(end);
  ensure(end);
  return static_cast<DevPtr>(start);
}

void GlobalStore::reset() { next_ = kBase; }

void GlobalStore::ensure(u64 end) {
  if (data_.size() < end) data_.resize(end, 0);
}

u32 GlobalStore::read32(DevPtr addr) const {
  assert(addr % 4 == 0 && "unaligned 32-bit global read");
  if (addr + 4 > data_.size()) data_.resize(addr + 4, 0);
  u32 v;
  std::memcpy(&v, data_.data() + addr, 4);
  return v;
}

void GlobalStore::write32(DevPtr addr, u32 value) {
  assert(addr % 4 == 0 && "unaligned 32-bit global write");
  ensure(addr + 4);
  std::memcpy(data_.data() + addr, &value, 4);
  // An aligned word never straddles a page.
  const u64 page = addr >> kPageShift;
  if (page < dirty_.size()) dirty_[page] = 1;
}

void GlobalStore::write_block(DevPtr dst, const void* src, u64 bytes) {
  ensure(dst + bytes);
  std::memcpy(data_.data() + dst, src, bytes);
  if (bytes == 0) return;
  const u64 end = std::min<u64>(((dst + bytes - 1) >> kPageShift) + 1,
                                dirty_.size());
  for (u64 p = dst >> kPageShift; p < end; ++p) dirty_[p] = 1;
}

void GlobalStore::read_block(void* dst, DevPtr src, u64 bytes) const {
  if (data_.size() < src + bytes) data_.resize(src + bytes, 0);
  std::memcpy(dst, data_.data() + src, bytes);
}

std::vector<ckpt::ImagePtr> GlobalStore::save(ckpt::Writer& w) {
  w.put32(next_);
  w.put64(data_.size());
  const size_t pages = (data_.size() + ckpt::kStorePageBytes - 1) >> kPageShift;
  images_.resize(pages);
  dirty_.resize(pages, 1);
  for (size_t i = 0; i < pages; ++i) {
    // Growth shows as a length change: reads grow the store too, without
    // passing through the write path that sets dirty bits.
    const size_t off = i << kPageShift;
    const size_t len =
        std::min<size_t>(ckpt::kStorePageBytes, data_.size() - off);
    if (dirty_[i] == 0 && images_[i] != nullptr &&
        images_[i]->bytes.size() == len)
      continue;
    images_[i] = ckpt::make_image(data_.data() + off, len);
    dirty_[i] = 0;
    pages_imaged_ += 1;
  }
  return images_;
}

void GlobalStore::restore(ckpt::Reader& r,
                          const std::vector<ckpt::ImagePtr>& pages) {
  next_ = r.get32();
  const u64 n = r.get64();
  const u64 want = (n + ckpt::kStorePageBytes - 1) >> kPageShift;
  if (pages.size() != want)
    throw ckpt::SnapshotError("snapshot store of " + std::to_string(n) +
                              " bytes needs " + std::to_string(want) +
                              " pages, has " + std::to_string(pages.size()));
  for (size_t i = 0; i < pages.size(); ++i) {
    const u64 off = u64{i} << kPageShift;
    if (pages[i]->bytes.size() != std::min<u64>(ckpt::kStorePageBytes, n - off))
      throw ckpt::SnapshotError("snapshot store page " + std::to_string(i) +
                                " has the wrong length");
  }
  data_.resize(static_cast<size_t>(n));
  // A page still holding the image it was saved or restored from, unwritten
  // since, already has the snapshot's bytes.
  const size_t kept = std::min(images_.size(), pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    if (i < kept && images_[i] == pages[i] && dirty_[i] == 0) continue;
    std::memcpy(data_.data() + (i << kPageShift), pages[i]->bytes.data(),
                pages[i]->bytes.size());
  }
  images_ = pages;
  dirty_.assign(pages.size(), 0);
}

}  // namespace higpu::memsys
