#include "ckpt/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace higpu::ckpt {

CheckpointPolicy CheckpointPolicy::interval(u64 cycles) {
  if (cycles == 0)
    throw std::invalid_argument(
        "CheckpointPolicy: interval must be a positive cycle count");
  CheckpointPolicy p;
  p.kind = Kind::kInterval;
  p.interval_cycles = cycles;
  return p;
}

std::string CheckpointPolicy::label() const {
  switch (kind) {
    case Kind::kNone: return "";
    case Kind::kInterval: return "ckpt" + std::to_string(interval_cycles);
    case Kind::kPreKernel: return "prekernel";
  }
  return "?";
}

ImagePtr make_image(std::vector<u8> bytes) {
  auto image = std::make_shared<Image>();
  image->bytes = std::move(bytes);
  image->hash = hash64(image->bytes.data(), image->bytes.size());
  return image;
}

ImagePtr make_image(const u8* data, size_t len) {
  return make_image(std::vector<u8>(data, data + len));
}

void check_store_pages(const std::vector<StorePage>& pages) {
  for (size_t i = 0; i < pages.size(); ++i) {
    const u32 index = pages[i].index;
    if (index >= kStorePages)
      throw SnapshotError("snapshot store page index " + std::to_string(index) +
                          " is out of range (the address space has " +
                          std::to_string(kStorePages) + " pages)");
    if (i > 0 && index == pages[i - 1].index)
      throw SnapshotError("snapshot store page table holds a duplicate index " +
                          std::to_string(index));
    if (i > 0 && index < pages[i - 1].index)
      throw SnapshotError("snapshot store page table out of order: index " +
                          std::to_string(index) + " after " +
                          std::to_string(pages[i - 1].index));
    if (pages[i].image == nullptr ||
        pages[i].image->bytes.size() != kStorePageBytes)
      throw SnapshotError("snapshot store page " + std::to_string(index) +
                          " is not " + std::to_string(kStorePageBytes) +
                          " bytes long");
  }
}

namespace {

/// Call `f` on every history image of `s`: launches, then block records.
template <class F>
void for_each_history_image(const Snapshot& s, F f) {
  for (const auto* images : {&s.launch_images, &s.record_images})
    for (const ImagePtr& image : *images) f(*image);
}

}  // namespace

u64 Snapshot::hash() const {
  // The blob's hash, each store page's index and hash, and each history
  // image's hash, hashed again as little-endian words.
  Writer w;
  w.put64(hash64(blob.data(), blob.size()));
  for (const StorePage& page : store_pages) {
    w.put32(page.index);
    w.put64(page.image->hash);
  }
  for_each_history_image(*this,
                         [&w](const Image& image) { w.put64(image.hash); });
  return hash64(w.blob().data(), w.blob().size());
}

u64 Snapshot::size_bytes() const {
  u64 n = blob.size() + store_extent;
  for_each_history_image(*this,
                         [&n](const Image& image) { n += image.bytes.size(); });
  return n;
}

namespace {

/// Architectural state first, bookkeeping last; ties broken by name so the
/// scan order is total and deterministic.
int section_priority(const std::string& name) {
  if (name.rfind("sm", 0) == 0) return 0;
  if (name.rfind("l1[", 0) == 0) return 1;
  if (name == "l2") return 2;
  if (name == "dram") return 3;
  if (name == "store") return 4;
  return 5;
}

/// Offset of the first differing byte of two equal-length ranges.
size_t first_diff(const u8* a, const u8* b, size_t len) {
  size_t off = 0;
  while (off < len && a[off] == b[off]) ++off;
  return off;
}

/// Human name of the first differing record inside a section pair.
std::string localize(const Section& s, const std::vector<u8>& a,
                     const std::vector<u8>& b, size_t b_offset) {
  const size_t off =
      first_diff(a.data() + s.offset, b.data() + b_offset, s.len);
  if (s.record_size != 0 && off < s.len) {
    const u64 rec = off / s.record_size;
    if (s.name.rfind("l1[", 0) == 0 || s.name == "l2")
      return s.name + " set " + std::to_string(rec);
    if (s.name == "dram") return s.name + " bank " + std::to_string(rec);
    return s.name + " #" + std::to_string(rec);
  }
  return s.name;
}

/// "store @0x<address>" of the first differing store byte, or "" when the
/// page lists hold the same contents. A page only one side holds compares
/// against zeros, which is what the other side reads there.
std::string store_divergence(const Snapshot& a, const Snapshot& b) {
  static const std::vector<u8> zeros(kStorePageBytes, 0);
  const auto& pa = a.store_pages;
  const auto& pb = b.store_pages;
  for (size_t i = 0, j = 0; i < pa.size() || j < pb.size();) {
    const u64 ia = i < pa.size() ? pa[i].index : kStorePages;
    const u64 ib = j < pb.size() ? pb[j].index : kStorePages;
    const u64 index = std::min(ia, ib);
    const Image* ima = ia == index ? pa[i++].image.get() : nullptr;
    const Image* imb = ib == index ? pb[j++].image.get() : nullptr;
    if (ima == imb) continue;  // shared image
    const std::vector<u8>& ba = ima != nullptr ? ima->bytes : zeros;
    const std::vector<u8>& bb = imb != nullptr ? imb->bytes : zeros;
    if (ba == bb) continue;
    const u64 addr =
        index * kStorePageBytes + first_diff(ba.data(), bb.data(), ba.size());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "store @0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
  }
  return "";
}

/// True when two image lists hold different bytes.
bool images_differ(const std::vector<ImagePtr>& a,
                   const std::vector<ImagePtr>& b) {
  if (a.size() != b.size()) return true;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i] &&
        (a[i]->hash != b[i]->hash || a[i]->bytes != b[i]->bytes))
      return true;
  return false;
}

}  // namespace

std::string first_divergence(const Snapshot& a, const Snapshot& b,
                             std::initializer_list<std::string_view> skip) {
  if (a.sections.size() != b.sections.size()) return "shape";

  std::vector<size_t> order(a.sections.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const int px = section_priority(a.sections[x].name);
    const int py = section_priority(a.sections[y].name);
    if (px != py) return px < py;
    return a.sections[x].name < a.sections[y].name;
  });

  for (size_t i : order) {
    const Section& sa = a.sections[i];
    const Section& sb = b.sections[i];
    if (sa.name != sb.name) return "shape";
    if (std::find(skip.begin(), skip.end(), sa.name) != skip.end()) continue;
    if (sa.len != sb.len) return sa.name;
    if (sa.hash != sb.hash ||
        std::memcmp(a.blob.data() + sa.offset, b.blob.data() + sb.offset,
                    sa.len) != 0)
      return localize(sa, a.blob, b.blob, sb.offset);
    // The "store" section holds the allocator cursor and the store extent;
    // with both equal, the contents are compared page by page.
    if (sa.name == "store") {
      std::string where = store_divergence(a, b);
      if (!where.empty()) return where;
    }
    // The "gpu" section holds the live launches and the history counts;
    // the history itself is compared image by image, and reported by the
    // section's name as when it was part of the section.
    if (sa.name == "gpu" && (images_differ(a.launch_images, b.launch_images) ||
                             images_differ(a.record_images, b.record_images)))
      return "gpu";
  }
  return "";
}

}  // namespace higpu::ckpt
