#include "ckpt/serial.h"

#include <cassert>

namespace higpu::ckpt {

u64 fnv1a(const u8* data, size_t len, u64 seed) {
  u64 h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

constexpr u64 kP1 = 0x9E3779B185EBCA87ull;
constexpr u64 kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr u64 kP3 = 0x165667B19E3779F9ull;
constexpr u64 kP4 = 0x85EBCA77C2B2AE63ull;
constexpr u64 kP5 = 0x27D4EB2F165667C5ull;

u64 rotl(u64 x, int r) { return (x << r) | (x >> (64 - r)); }

// Byte-assembled loads: the value is little-endian on every host, and
// compilers fold the pattern into one unaligned load where that is exact.
u64 load64(const u8* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

u64 load32(const u8* p) {
  u64 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

u64 round(u64 acc, u64 input) { return rotl(acc + input * kP2, 31) * kP1; }

u64 merge(u64 h, u64 lane) { return (h ^ round(0, lane)) * kP1 + kP4; }

}  // namespace

u64 hash64(const u8* data, size_t len, u64 seed) {
  const u8* p = data;
  const u8* const end = data + len;
  u64 h;
  if (len >= 32) {
    // Four independent lanes: no lane waits on another's multiply.
    u64 v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    const u8* const last_stripe = end - 32;
    do {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += static_cast<u64>(len);
  for (; end - p >= 8; p += 8) h = rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

void Writer::begin_section(std::string name, u64 record_size) {
  assert(!section_open_ && "nested snapshot sections are not supported");
  section_open_ = true;
  open_name_ = std::move(name);
  open_offset_ = blob_.size();
  open_record_size_ = record_size;
}

void Writer::end_section() {
  assert(section_open_ && "end_section without begin_section");
  section_open_ = false;
  Section s;
  s.name = std::move(open_name_);
  s.offset = open_offset_;
  s.len = blob_.size() - open_offset_;
  s.record_size = open_record_size_;
  s.hash = hash64(blob_.data() + s.offset, s.len);
  sections_.push_back(std::move(s));
}

void Reader::enter_section(const std::string& name) {
  if (in_section_)
    throw SnapshotError("enter_section('" + name + "') inside '" +
                        sections_[section_idx_ - 1].name + "'");
  if (section_idx_ >= sections_.size())
    throw SnapshotError("snapshot has no section '" + name + "'");
  const Section& s = sections_[section_idx_];
  if (s.name != name)
    throw SnapshotError("snapshot section order mismatch: expected '" + name +
                        "', found '" + s.name + "'");
  if (s.len > size_ || s.offset > size_ - s.len)
    throw SnapshotError("snapshot section '" + s.name +
                        "' extends past the end of the blob");
  pos_ = s.offset;
  section_end_ = s.offset + s.len;
  section_idx_ += 1;
  in_section_ = true;
}

void Reader::leave_section() {
  if (!in_section_) throw SnapshotError("leave_section outside any section");
  const Section& s = sections_[section_idx_ - 1];
  if (pos_ != section_end_)
    throw SnapshotError("snapshot section '" + s.name + "' size mismatch: " +
                        std::to_string(section_end_ - pos_) +
                        " unread bytes");
  in_section_ = false;
}

}  // namespace higpu::ckpt
