#include "exp/result_io.h"

#include <type_traits>

#include "common/jsonl.h"

namespace higpu::exp {

namespace {

template <class E>
E parse_enum(const std::string& s, const std::string& field) {
  for (u32 i = 0; i <= static_cast<u32>(enum_last(E{})); ++i)
    if (s == name_of(static_cast<E>(i))) return static_cast<E>(i);
  throw std::runtime_error("field '" + field + "' has unknown value '" + s +
                           "'");
}

template <FieldRecord T>
void read_fields(const JsonValue& v, T& rec) {
  visit_fields(rec, [&](const char* name, auto& f,
                        FieldTag = FieldTag::kNone) {
    using F = std::remove_cvref_t<decltype(f)>;
    const std::string field = name;
    if constexpr (FieldRecord<F>) {
      read_fields(v.at(field), f);
    } else if constexpr (std::is_same_v<F, std::vector<obs::SmCycles>>) {
      // Absent in records written before per-SM profiles existed.
      const JsonValue* a = v.find(field);
      if (a == nullptr) return;
      if (a->kind != JsonValue::Kind::kArray)
        throw std::runtime_error("field '" + field + "' is not an array");
      for (const JsonValue& e : a->array) read_fields(e, f.emplace_back());
    } else if constexpr (std::is_same_v<F, StatSet>) {
      const JsonValue& stats = v.at(field);
      if (stats.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("field '" + field + "' is not an object");
      for (const auto& [stat, val] : stats.object) {
        if (val.kind != JsonValue::Kind::kNumber || !val.is_integer ||
            val.negative)
          throw std::runtime_error("stat counter '" + stat +
                                   "' is not a non-negative integer");
        f.set(stat, val.integer);
      }
    } else if constexpr (std::is_enum_v<F>) {
      f = parse_enum<F>(v.get_string(field), field);
    } else if constexpr (std::is_same_v<F, bool>) {
      f = v.get_bool(field);
    } else if constexpr (std::is_same_v<F, std::string>) {
      f = v.get_string(field);
    } else if constexpr (std::is_floating_point_v<F>) {
      f = v.get_double(field);
    } else if constexpr (std::is_signed_v<F>) {
      f = static_cast<F>(v.get_i64(field));
    } else {
      f = static_cast<F>(v.get_u64(field));
    }
  });
}

}  // namespace

ScenarioResult result_from_jsonl(const std::string& line) {
  const JsonValue v = parse_json(line);
  if (v.kind != JsonValue::Kind::kObject)
    throw std::runtime_error("result record is not a JSON object");
  ScenarioResult r;
  read_fields(v, r);
  return r;
}

}  // namespace higpu::exp
