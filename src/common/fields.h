// One field list per record. Beside its declaration a record defines
//   template <FieldsOf<Rec> S, class V> void visit_fields(S& r, V&& v)
// calling v("name", r.member) once per field in serialization order, with
// at most one FieldTag as a third argument (a class whose state is private
// makes it a hidden friend). Result equality, the JSONL and wire codecs,
// the snapshot parameter fingerprint, device snapshot save/restore and the
// SM and memory-system statistics all visit these lists. A visitor over
// device state also writes the loops over fixed-size per-slot arrays, and
// may stop after an `active` flag that says the rest of the slot is empty.
// Fields are records, enums, bool, integers, floats, strings and vectors
// of these. An enum a record holds names its last enumerator in
// `constexpr E enum_last(E)` so decoders can refuse any other value.
#pragma once

#include <concepts>
#include <type_traits>

#include "common/types.h"

namespace higpu {

enum class FieldTag : u8 {
  kNone,
  /// Host timing or campaign-mode-dependent diagnosis: outside
  /// ScenarioResult::deterministic_fields_equal.
  kNotDeterministic,
  /// A statistics counter reported even while it is zero; the others
  /// appear once nonzero.
  kReportedWhenZero,
};

/// `S` is `T` or `const T`, so one visit_fields serves readers and writers.
template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/// Visitors take the tag as a defaulted parameter, like this one, and
/// recurse into members that are FieldRecords.
inline constexpr auto kAnyFieldVisitor =
    [](const char*, auto&, FieldTag = FieldTag::kNone) {};
template <class T>
concept FieldRecord = requires(T& r) { visit_fields(r, kAnyFieldVisitor); };

}  // namespace higpu
