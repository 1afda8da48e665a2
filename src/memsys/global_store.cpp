#include "memsys/global_store.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace higpu::memsys {

DevPtr GlobalStore::alloc(u64 bytes) {
  const u64 start = align_up(next_, 256);
  const u64 end = start + align_up(bytes, 4);
  if (end > kCapacity) throw std::bad_alloc();
  next_ = static_cast<DevPtr>(end);
  reach(end);
  return static_cast<DevPtr>(start);
}

void GlobalStore::reach(u64 end) const {
  // Stores only when it grows: a store per access would chain every
  // access through memory.
  if (end > extent_) extent_ = std::min(end, u64{1} << 32);
}

const u8* GlobalStore::page_bytes(u32 index) const {
  const Leaf* leaf = dir_[index >> kLeafShift].get();
  return leaf != nullptr ? leaf->bytes[index & kLeafMask] : nullptr;
}

GlobalStore::Leaf& GlobalStore::leaf(u32 d) {
  if (dir_[d] == nullptr) dir_[d] = std::make_unique<Leaf>();
  return *dir_[d];
}

u8* GlobalStore::writable_page(u32 index) {
  Leaf& leaf = this->leaf(index >> kLeafShift);
  const u32 i = index & kLeafMask;
  if (!leaf.owned[i]) {
    auto page = std::make_shared<ckpt::Image>();
    page->bytes = leaf.pages[i] != nullptr
                      ? leaf.pages[i]->bytes
                      : std::vector<u8>(ckpt::kStorePageBytes, 0);
    leaf.bytes[i] = page->bytes.data();
    leaf.pages[i] = std::move(page);
    leaf.owned[i] = true;
  }
  return leaf.bytes[i];
}

u32 GlobalStore::read32(DevPtr addr) const {
  u32 v = 0;
  if ((addr & kPageMask) > kPageMask - 3) {
    read_block(&v, addr, 4);
    return v;
  }
  reach(u64{addr} + 4);
  if (const u8* page = page_bytes(addr >> kPageShift))
    std::memcpy(&v, page + (addr & kPageMask), 4);
  return v;
}

void GlobalStore::write32(DevPtr addr, u32 value) {
  if ((addr & kPageMask) > kPageMask - 3) {
    write_block(addr, &value, 4);
    return;
  }
  reach(u64{addr} + 4);
  std::memcpy(writable_page(addr >> kPageShift) + (addr & kPageMask), &value,
              4);
}

void GlobalStore::write_block(DevPtr dst, const void* src, u64 bytes) {
  reach(dst + bytes);
  const u8* in = static_cast<const u8*>(src);
  for (u64 done = 0; done < bytes;) {
    const u32 addr = static_cast<u32>(dst + done);
    const u32 off = addr & kPageMask;
    const u64 n = std::min<u64>(bytes - done, ckpt::kStorePageBytes - off);
    std::memcpy(writable_page(addr >> kPageShift) + off, in + done, n);
    done += n;
  }
}

void GlobalStore::read_block(void* dst, DevPtr src, u64 bytes) const {
  reach(src + bytes);
  u8* out = static_cast<u8*>(dst);
  for (u64 done = 0; done < bytes;) {
    const u32 addr = static_cast<u32>(src + done);
    const u32 off = addr & kPageMask;
    const u64 n = std::min<u64>(bytes - done, ckpt::kStorePageBytes - off);
    if (const u8* page = page_bytes(addr >> kPageShift))
      std::memcpy(out + done, page + off, n);
    else
      std::memset(out + done, 0, n);
    done += n;
  }
}

void GlobalStore::save(ckpt::Writer& w, ckpt::Snapshot& snap) {
  ckpt::put_fields(w, *this);
  snap.store_extent = extent_;
  snap.store_pages.clear();
  for (u32 d = 0; d < kLeaves; ++d) {
    if (dir_[d] == nullptr) continue;
    Leaf& leaf = *dir_[d];
    for (u32 i = 0; i < kLeafPages; ++i) {
      if (leaf.pages[i] == nullptr) continue;
      if (leaf.owned[i]) {
        ckpt::Image& page = *leaf.pages[i];
        page.hash = ckpt::hash64(page.bytes.data(), page.bytes.size());
        pages_imaged_ += 1;
      }
      snap.store_pages.push_back({(d << kLeafShift) | i, leaf.pages[i]});
    }
    leaf.owned.reset();
  }
}

void GlobalStore::restore(ckpt::Reader& r, const ckpt::Snapshot& snap) {
  ckpt::check_store_pages(snap.store_pages);
  ckpt::get_fields(r, *this, ckpt::FieldPath{"store"});
  if (extent_ != snap.store_extent)
    throw ckpt::SnapshotError("snapshot store extent " +
                              std::to_string(snap.store_extent) +
                              " disagrees with its \"store\" section (" +
                              std::to_string(extent_) + ")");
  for (std::unique_ptr<Leaf>& leaf : dir_)
    if (leaf != nullptr) *leaf = Leaf{};
  // Not owned, so never written in place: the cast only lets a later write
  // find the bytes to copy.
  for (const ckpt::StorePage& p : snap.store_pages) {
    Leaf& leaf = this->leaf(p.index >> kLeafShift);
    const u32 i = p.index & kLeafMask;
    leaf.pages[i] = std::const_pointer_cast<ckpt::Image>(p.image);
    leaf.bytes[i] = leaf.pages[i]->bytes.data();
  }
}

}  // namespace higpu::memsys
