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
// Records are written and read through their one visit_fields list
// (common/fields.h): put_fields appends the listed fields in order and
// get_fields reads them back, refusing an enum byte past the enum's last
// enumerator with an error that names the field's path ("sm0.warp.stack").
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
#include <string_view>
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

template <FieldsOf<Section> S, class V>
void visit_fields(S& s, V&& v) {
  v("name", s.name);
  v("offset", s.offset);
  v("len", s.len);
  v("record_size", s.record_size);
  v("hash", s.hash);
}

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

template <class T>
inline constexpr bool kIsVector = false;
template <class E, class A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;

/// An integer field, stored at its own width (a bool as one byte).
template <class F>
inline constexpr bool kIsInt =
    std::is_integral_v<F> && (sizeof(F) == 1 || sizeof(F) == 2 ||
                              sizeof(F) == 4 || sizeof(F) == 8);

template <FieldRecord T>
void put_fields(Writer& w, const T& rec);

/// Append one field: a record through its visit_fields, an enum as one
/// byte, an integer at its width, a float as f64, a string or vector as a
/// u64 count and then its elements.
template <class F>
void put_field(Writer& w, const F& f) {
  if constexpr (FieldRecord<F>) {
    put_fields(w, f);
  } else if constexpr (std::is_enum_v<F>) {
    w.put8(static_cast<u8>(f));
  } else if constexpr (kIsInt<F>) {
    store_le<sizeof(F)>(w.extend(sizeof(F)), static_cast<u64>(f));
  } else if constexpr (std::is_floating_point_v<F>) {
    w.putf64(f);
  } else if constexpr (std::is_same_v<F, std::string>) {
    w.put_string(f);
  } else {
    static_assert(kIsVector<F>, "no encoding for this field type");
    using E = typename F::value_type;
    w.put64(f.size());
    if constexpr (std::is_same_v<E, u8>) {
      w.put_bytes(f.data(), f.size());
    } else if constexpr (kIsInt<E>) {
      u8* p = w.extend(sizeof(E) * f.size());
      for (E x : f) {
        store_le<sizeof(E)>(p, static_cast<u64>(x));
        p += sizeof(E);
      }
    } else {
      for (const E& e : f) put_field(w, e);
    }
  }
}

/// Append `rec`'s visit_fields in order (see put_field).
template <FieldRecord T>
void put_fields(Writer& w, const T& rec) {
  visit_fields(rec, [&](const char*, const auto& f,
                        FieldTag = FieldTag::kNone) { put_field(w, f); });
}

/// Thrown on any structural mismatch while reading a snapshot back.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Where a field sits in its record tree, for error messages. Decoders
/// keep the nodes on their stack, so the path is only spelled out when a
/// field is refused.
struct FieldPath {
  std::string_view name;
  const FieldPath* up = nullptr;
  /// The names from the root down, joined by '.': "sm0.warp_stall.cls".
  std::string str() const {
    std::string s = up != nullptr ? up->str() : std::string();
    if (!s.empty() && !name.empty()) s += '.';
    s.append(name);
    return s;
  }
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
  /// Read an element count and refuse it unless `n` elements of at least
  /// `min_bytes_each` bytes fit in the unread input: a corrupt length field
  /// throws here, before anything is allocated from it.
  u64 get_count(size_t min_bytes_each, const char* what) {
    return get_count(min_bytes_each, FieldPath{what});
  }
  u64 get_count(size_t min_bytes_each, const FieldPath& what) {
    const u64 n = get64();
    if (n > remaining() / min_bytes_each)
      throw SnapshotError(what.str() + " length " + std::to_string(n) +
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
  // The text names no input: snapshots and wire payloads share this reader,
  // and their callers say which one was cut.
  void need(u64 n) const {
    if (n > remaining())
      throw SnapshotError("input underrun at byte " + std::to_string(pos_) +
                          ": " + std::to_string(n) + " byte(s) needed, " +
                          std::to_string(remaining()) + " left");
  }

  const u8* data_;
  size_t size_;
  const std::vector<Section>& sections_;
  size_t pos_ = 0;
  size_t section_idx_ = 0;
  size_t section_end_ = 0;
  bool in_section_ = false;
};

/// The fewest bytes put_field writes for an F, which bounds how many Fs a
/// decoded count may claim. A record counts the fields its visitor lists
/// for a default-constructed one.
template <class F>
size_t min_field_bytes() {
  if constexpr (FieldRecord<F>) {
    size_t n = 0;
    F rec{};
    visit_fields(rec, [&n](const char*, auto& f, FieldTag = FieldTag::kNone) {
      n += min_field_bytes<std::remove_cvref_t<decltype(f)>>();
    });
    return n;
  } else if constexpr (std::is_enum_v<F>) {
    return 1;
  } else if constexpr (kIsInt<F>) {
    return sizeof(F);
  } else {
    return 8;  // f64, or the count of a string or vector
  }
}

template <class Error = SnapshotError, FieldRecord T>
void get_fields(Reader& r, T& rec, const FieldPath& at = {});

/// Inverse of put_field. `at` names `f` in errors: an enum byte no
/// enumerator has throws `Error` naming it, never casts into the enum
/// (every enum a record holds names its last enumerator in enum_last).
/// Counts are checked against the bytes left before anything is allocated.
template <class Error = SnapshotError, class F>
void get_field(Reader& r, F& f, const FieldPath& at) {
  if constexpr (FieldRecord<F>) {
    get_fields<Error>(r, f, at);
  } else if constexpr (std::is_enum_v<F>) {
    const u8 v = r.get8();
    if (v > static_cast<u8>(enum_last(F{})))
      throw Error("field " + at.str() + " holds out-of-range enum value " +
                  std::to_string(v));
    f = static_cast<F>(v);
  } else if constexpr (std::is_same_v<F, bool>) {
    f = r.getb();
  } else if constexpr (kIsInt<F>) {
    f = static_cast<F>(load_le<sizeof(F)>(r.take(sizeof(F))));
  } else if constexpr (std::is_floating_point_v<F>) {
    f = F(r.getf64());
  } else if constexpr (std::is_same_v<F, std::string>) {
    f = r.get_string();
  } else {
    static_assert(kIsVector<F>, "no encoding for this field type");
    using E = typename F::value_type;
    // assign, not resize: a vector that must grow is allocated at exactly
    // the decoded size.
    f.assign(static_cast<size_t>(r.get_count(min_field_bytes<E>(), at)), E{});
    if constexpr (std::is_same_v<E, u8>) {
      r.get_bytes(f.data(), f.size());
    } else if constexpr (kIsInt<E>) {
      const u8* p = r.take(sizeof(E) * f.size());
      for (E& x : f) {
        x = static_cast<E>(load_le<sizeof(E)>(p));
        p += sizeof(E);
      }
    } else {
      for (E& e : f) get_field<Error>(r, e, at);
    }
  }
}

/// Inverse of put_fields: read `rec`'s visit_fields in order. A field's
/// path is `at`'s followed by the names its visitors give it.
template <class Error, FieldRecord T>
void get_fields(Reader& r, T& rec, const FieldPath& at) {
  visit_fields(rec, [&](const char* name, auto& f,
                        FieldTag = FieldTag::kNone) {
    get_field<Error>(r, f, FieldPath{name, &at});
  });
}

}  // namespace higpu::ckpt
