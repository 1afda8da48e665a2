// ScenarioResult <-> JSONL record conversion (higpu.campaign.jsonl/1), and
// the JSON field walk every record report shares.
//
// One ScenarioResult is one self-contained JSON object on one line. Every
// deterministic field round-trips bit-exactly — they are all integers,
// booleans, enums (serialized by name) or strings — which is what lets the
// distributed campaign service journal results as they stream in and still
// honor the campaign determinism contract on resume
// (ScenarioResult::deterministic_fields_equal against a jobs=1 golden).
// The non-deterministic wall-clock fields travel as doubles for reporting
// and are excluded from that equality, exactly as in the in-process runner.
//
// The walk (write_members / write_value) writes any record from its
// visit_fields list: the JSONL record, each result of the campaign report
// (CampaignResult::to_json), and the journal's header and log lines.
#pragma once

#include <string>
#include <type_traits>

#include "ckpt/serial.h"
#include "common/table.h"
#include "exp/campaign.h"

namespace higpu::exp {

/// Enum-typed record fields travel by name.
inline const char* name_of(safety::Asil a) { return safety::asil_name(a); }
inline const char* name_of(fault::Outcome o) { return fault::outcome_name(o); }

template <class F>
void write_value(JsonWriter& jw, const F& f);

/// Write `rec`'s visit_fields, in order, as members of the JSON object `jw`
/// has open.
template <FieldRecord T>
void write_members(JsonWriter& jw, const T& rec) {
  visit_fields(rec, [&](const char* name, const auto& f,
                        FieldTag = FieldTag::kNone) {
    jw.key(name);
    write_value(jw, f);
  });
}

/// Write one field value: a record as an object, a StatSet as an object of
/// its counters, a vector as an array, an enum by name, a float with full
/// precision (so a resumed campaign reports the measured wall times).
template <class F>
void write_value(JsonWriter& jw, const F& f) {
  if constexpr (FieldRecord<F>) {
    jw.begin_object();
    write_members(jw, f);
    jw.end_object();
  } else if constexpr (std::is_same_v<F, StatSet>) {
    jw.begin_object();
    for (const auto& [name, value] : f.entries()) jw.field(name, value);
    jw.end_object();
  } else if constexpr (ckpt::kIsVector<F>) {
    jw.begin_array();
    for (const auto& e : f) write_value(jw, e);
    jw.end_array();
  } else if constexpr (std::is_enum_v<F>) {
    jw.value(name_of(f));
  } else if constexpr (std::is_floating_point_v<F>) {
    jw.value_exact(f);
  } else {
    jw.value(f);
  }
}

/// `rec` as a single-line JSON object (no trailing newline). Strings are
/// escaped, so an `error` carrying newlines or quotes from exception text
/// never makes the record span lines.
template <FieldRecord T>
std::string to_jsonl(const T& rec) {
  JsonWriter jw = JsonWriter::compact();
  write_value(jw, rec);
  return jw.str();
}

/// One result as its higpu.campaign.jsonl/1 record.
inline std::string result_to_jsonl(const ScenarioResult& r) {
  return to_jsonl(r);
}

/// Parse a record produced by result_to_jsonl. Throws std::runtime_error
/// (with the offending field or parse offset) on malformed input — a
/// corrupted journal line is always a loud failure, never a silent skip.
ScenarioResult result_from_jsonl(const std::string& line);

}  // namespace higpu::exp
