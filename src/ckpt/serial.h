// Deterministic binary serialization for device-state snapshots.
//
// A Writer appends fixed-width little-endian fields to a byte blob and
// groups them into named sections; a Reader consumes the same fields in the
// same order and refuses to run past a section or the blob (a malformed or
// version-skewed snapshot throws instead of silently corrupting simulator
// state). Field-by-field serialization (never memcpy of whole structs) keeps
// the format independent of struct padding, so two snapshots of identical
// device state are byte-identical — which is what makes hash() comparisons
// and the per-section divergence diff meaningful.
//
// Fields are stored whole: the Writer grows the blob by a field's width and
// stores the little-endian value into that space (store_le). A component
// with many fixed-size records (a cache tag array) claims the space for all
// of them with one extend() and fills it in one pass; the Reader mirrors
// this with take() and load_le.
//
// The section table doubles as the diagnosis index: every section records
// its byte range and hash, and an optional fixed record size (e.g. one L1
// set, one DRAM bank) that lets ckpt::first_divergence translate a byte
// offset into an architectural component name.
//
// Two hash functions, for two jobs. hash64 is the fast one: it hashes
// sections, snapshot images and wire frames, values that are only ever
// compared within one snapshot format version. fnv1a stays for values that
// persist or are compared across builds (parameter and campaign
// fingerprints, bench digests), so those never change with the format.
#pragma once

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::ckpt {

/// FNV-1a over a byte range: for fingerprints and digests that must stay
/// stable across snapshot format versions.
u64 fnv1a(const u8* data, size_t len, u64 seed = 0xcbf29ce484222325ull);

/// Word-wise 64-bit hash (the XXH64 construction: four independent u64
/// lanes over 32-byte stripes, explicit little-endian loads, so the value
/// is the same on every host). The section, image and wire-frame hash.
u64 hash64(const u8* data, size_t len, u64 seed = 0);

/// Store the low `N` bytes of `v` at `p`, least significant first.
template <int N>
inline void store_le(u8* p, u64 v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, N);
  } else {
    for (int i = 0; i < N; ++i) p[i] = static_cast<u8>(v >> (8 * i));
  }
}

/// Load `N` little-endian bytes from `p`.
template <int N>
inline u64 load_le(const u8* p) {
  u64 v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, N);
  } else {
    for (int i = 0; i < N; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  }
  return v;
}

/// One named contiguous range of the snapshot blob.
struct Section {
  std::string name;
  size_t offset = 0;
  size_t len = 0;
  /// Fixed payload record size for component-index diagnosis (0 = opaque).
  u64 record_size = 0;
  u64 hash = 0;
};

class Writer {
 public:
  /// Grow the blob by `n` bytes and return the first of them. The caller
  /// stores all `n` before the next put.
  u8* extend(size_t n) {
    const size_t at = blob_.size();
    blob_.resize(at + n);
    return blob_.data() + at;
  }

  void put8(u8 v) { blob_.push_back(v); }
  void put16(u16 v) { store_le<2>(extend(2), v); }
  void put32(u32 v) { store_le<4>(extend(4), v); }
  void put64(u64 v) { store_le<8>(extend(8), v); }
  void putf64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put64(bits);
  }
  void putb(bool v) { put8(v ? 1 : 0); }
  void put_bytes(const void* p, size_t n) {
    if (n == 0) return;
    std::memcpy(extend(n), p, n);
  }
  void put_string(const std::string& s) {
    put64(s.size());
    put_bytes(s.data(), s.size());
  }
  void put_u32_vec(const std::vector<u32>& v) {
    put64(v.size());
    u8* p = extend(4 * v.size());
    for (u32 x : v) {
      store_le<4>(p, x);
      p += 4;
    }
  }
  void put_u64_vec(const std::vector<u64>& v) {
    put64(v.size());
    u8* p = extend(8 * v.size());
    for (u64 x : v) {
      store_le<8>(p, x);
      p += 8;
    }
  }

  void begin_section(std::string name, u64 record_size = 0);
  void end_section();

  const std::vector<u8>& blob() const { return blob_; }
  std::vector<u8> take_blob() { return std::move(blob_); }
  std::vector<Section> take_sections() { return std::move(sections_); }

 private:
  std::vector<u8> blob_;
  std::vector<Section> sections_;
  size_t open_offset_ = 0;
  bool section_open_ = false;
  std::string open_name_;
  u64 open_record_size_ = 0;
};

/// Append `rec`'s visit_fields in order: enums as one byte, integers at
/// their width, floats as f64, strings and u32 vectors length-prefixed.
/// Fields tagged `skip` (other than kNone) are left out.
template <FieldRecord T>
void put_fields(Writer& w, const T& rec, FieldTag skip = FieldTag::kNone) {
  visit_fields(rec, [&](const char*, const auto& f,
                        FieldTag tag = FieldTag::kNone) {
    using F = std::remove_cvref_t<decltype(f)>;
    if (skip != FieldTag::kNone && tag == skip) return;
    if constexpr (FieldRecord<F>) put_fields(w, f, skip);
    else if constexpr (std::is_enum_v<F>) w.put8(static_cast<u8>(f));
    else if constexpr (std::is_same_v<F, u32>) w.put32(f);
    else if constexpr (std::is_same_v<F, u64>) w.put64(f);
    else if constexpr (std::is_floating_point_v<F>) w.putf64(f);
    else if constexpr (std::is_same_v<F, std::string>) w.put_string(f);
    else w.put_u32_vec(f);
  });
}

/// Thrown on any structural mismatch while reading a snapshot back.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class Reader {
 public:
  Reader(const std::vector<u8>& blob, const std::vector<Section>& sections)
      : Reader(blob.data(), blob.size(), sections) {}
  Reader(const u8* data, size_t size, const std::vector<Section>& sections)
      : data_(data), size_(size), sections_(sections) {}

  /// The next `n` bytes of the input; the cursor moves past them.
  const u8* take(size_t n) {
    need(n);
    const u8* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  u8 get8() { return *take(1); }
  u16 get16() { return static_cast<u16>(load_le<2>(take(2))); }
  u32 get32() { return static_cast<u32>(load_le<4>(take(4))); }
  u64 get64() { return load_le<8>(take(8)); }
  double getf64() {
    const u64 bits = get64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  bool getb() { return get8() != 0; }
  void get_bytes(void* p, size_t n) {
    if (n == 0) return;
    std::memcpy(p, take(n), n);
  }
  std::string get_string() {
    const u64 n = get64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  std::vector<u32> get_u32_vec() {
    const size_t n = static_cast<size_t>(get_count(4, "u32 vector"));
    std::vector<u32> v(n);
    const u8* p = take(4 * n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<u32>(load_le<4>(p + 4 * i));
    return v;
  }
  std::vector<u64> get_u64_vec() {
    const size_t n = static_cast<size_t>(get_count(8, "u64 vector"));
    std::vector<u64> v(n);
    const u8* p = take(8 * n);
    for (size_t i = 0; i < n; ++i) v[i] = load_le<8>(p + 8 * i);
    return v;
  }
  /// Read an element count and refuse it unless `n` elements of at least
  /// `min_bytes_each` bytes fit in the unread input: a corrupt length field
  /// throws here, before anything is allocated from it.
  u64 get_count(size_t min_bytes_each, const char* what) {
    const u64 n = get64();
    if (n > remaining() / min_bytes_each)
      throw SnapshotError(std::string(what) + " length " + std::to_string(n) +
                          " exceeds the " + std::to_string(remaining()) +
                          " bytes left at byte " + std::to_string(pos_));
    return n;
  }
  /// Unread bytes of the whole input.
  size_t remaining() const { return size_ - pos_; }

  /// Sections are read in serialization order; entering one checks the name
  /// and positions the cursor, leaving one checks the full payload was
  /// consumed — a component that reads more or less than it saved fails
  /// loudly at the section boundary, not megabytes later.
  void enter_section(const std::string& name);
  void leave_section();
  /// Discard the rest of the current section (intentionally skipped state).
  void skip_to_section_end() {
    if (in_section_) pos_ = section_end_;
  }

 private:
  void need(u64 n) const {
    if (n > remaining())
      throw SnapshotError("snapshot blob underrun at byte " +
                          std::to_string(pos_));
  }

  const u8* data_;
  size_t size_;
  const std::vector<Section>& sections_;
  size_t pos_ = 0;
  size_t section_idx_ = 0;
  size_t section_end_ = 0;
  bool in_section_ = false;
};

}  // namespace higpu::ckpt
