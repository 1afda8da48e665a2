// JSON Lines support: an append-only, flush-per-record writer and a small
// recursive-descent JSON parser for reading records back.
//
// JSONL is the journal format of the distributed campaign service
// (higpu.campaign.jsonl/1): one self-contained JSON object per line, each
// line flushed to the OS as soon as it is complete, so a crashed process
// leaves behind every finished record plus at most one torn trailing line.
// The parser exists to scan those journals on resume — it accepts exactly
// the JSON the JsonWriter family emits (objects, arrays, strings, numbers,
// booleans, null) and reports malformed input with a byte offset instead of
// guessing.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace higpu {

/// Append-only JSON-Lines file writer. Every append() writes one complete
/// line and flushes it, so records survive a crash of the writing process
/// (a SIGKILL can tear at most the line being written). The file is opened
/// in append mode: reopening an existing journal continues it.
class JsonlWriter {
 public:
  /// Throws std::runtime_error (naming the path) when the file can't be
  /// opened. `truncate` starts a fresh file instead of appending.
  JsonlWriter(const std::string& path, bool truncate);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;
  JsonlWriter(JsonlWriter&& other) noexcept
      : path_(std::move(other.path_)),
        file_(other.file_),
        records_(other.records_) {
    other.file_ = nullptr;
  }
  JsonlWriter& operator=(JsonlWriter&& other) noexcept {
    if (this != &other) {
      if (file_ != nullptr) std::fclose(file_);
      path_ = std::move(other.path_);
      file_ = other.file_;
      records_ = other.records_;
      other.file_ = nullptr;
    }
    return *this;
  }

  /// Write `record` (which must not contain '\n' — one record, one line)
  /// plus a newline, then flush. Throws std::runtime_error on I/O failure
  /// or an embedded newline.
  void append(const std::string& record);

  const std::string& path() const { return path_; }
  u64 records_written() const { return records_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  u64 records_ = 0;
};

/// Thrown by parse_json / JsonValue accessors on malformed or mistyped
/// input. `what()` includes the byte offset or field name.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed JSON value. Numbers keep their exact integer representation
/// when they have one (64-bit counters and nanosecond timestamps round-trip
/// bit-exactly; `double` is only used for values written with a decimal
/// point or exponent).
struct JsonValue {
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// kNumber: integer payload when `is_integer` (negated when `negative`),
  /// else `real` holds the parsed double.
  bool is_integer = false;
  bool negative = false;
  u64 integer = 0;
  double real = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; duplicate keys are kept (callers see the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named `key`, or nullptr. Object-kind only.
  const JsonValue* find(const std::string& key) const;

  // ---- Checked accessors (throw JsonError naming `field`) -----------------
  const JsonValue& at(const std::string& field) const;
  bool get_bool(const std::string& field) const;
  u64 get_u64(const std::string& field) const;
  i64 get_i64(const std::string& field) const;
  double get_double(const std::string& field) const;
  std::string get_string(const std::string& field) const;
  /// Like get_string but returning `fallback` when the field is absent
  /// (schema-tolerant reads of optional fields).
  std::string get_string_or(const std::string& field,
                            const std::string& fallback) const;

  double as_double() const;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws JsonError with the byte offset of the first problem.
JsonValue parse_json(const std::string& text);

}  // namespace higpu
