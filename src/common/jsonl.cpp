#include "common/jsonl.h"

#include <cerrno>
#include <cmath>
#include <cstring>

namespace higpu {

// ---- JsonlWriter -----------------------------------------------------------

JsonlWriter::JsonlWriter(const std::string& path, bool truncate)
    // "e" = O_CLOEXEC: journal handles must not leak into forked workers.
    : path_(path), file_(std::fopen(path.c_str(), truncate ? "we" : "ae")) {
  if (file_ == nullptr)
    throw std::runtime_error("JsonlWriter: cannot open '" + path +
                             "': " + std::strerror(errno));
}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlWriter::append(const std::string& record) {
  if (record.find('\n') != std::string::npos)
    throw std::runtime_error(
        "JsonlWriter: record contains an embedded newline (one record must "
        "be one line); escape control characters before appending");
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0)
    throw std::runtime_error("JsonlWriter: write to '" + path_ +
                             "' failed: " + std::strerror(errno));
  records_ += 1;
}

// ---- JsonValue accessors ---------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& field) const {
  const JsonValue* v = find(field);
  if (v == nullptr) throw JsonError("missing field '" + field + "'");
  return *v;
}

bool JsonValue::get_bool(const std::string& field) const {
  const JsonValue& v = at(field);
  if (v.kind != Kind::kBool)
    throw JsonError("field '" + field + "' is not a boolean");
  return v.boolean;
}

u64 JsonValue::get_u64(const std::string& field) const {
  const JsonValue& v = at(field);
  if (v.kind != Kind::kNumber || !v.is_integer || v.negative)
    throw JsonError("field '" + field + "' is not a non-negative integer");
  return v.integer;
}

i64 JsonValue::get_i64(const std::string& field) const {
  const JsonValue& v = at(field);
  if (v.kind != Kind::kNumber || !v.is_integer)
    throw JsonError("field '" + field + "' is not an integer");
  if (v.negative) {
    if (v.integer > 0x8000000000000000ull)
      throw JsonError("field '" + field + "' underflows i64");
    return -static_cast<i64>(v.integer - 1) - 1;
  }
  if (v.integer > 0x7FFFFFFFFFFFFFFFull)
    throw JsonError("field '" + field + "' overflows i64");
  return static_cast<i64>(v.integer);
}

double JsonValue::get_double(const std::string& field) const {
  const JsonValue& v = at(field);
  if (v.kind != Kind::kNumber)
    throw JsonError("field '" + field + "' is not a number");
  return v.as_double();
}

std::string JsonValue::get_string(const std::string& field) const {
  const JsonValue& v = at(field);
  if (v.kind != Kind::kString)
    throw JsonError("field '" + field + "' is not a string");
  return v.string;
}

std::string JsonValue::get_string_or(const std::string& field,
                                     const std::string& fallback) const {
  return find(field) != nullptr ? get_string(field) : fallback;
}

double JsonValue::as_double() const {
  if (!is_integer) return real;
  const double v = static_cast<double>(integer);
  return negative ? -v : v;
}

// ---- Parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                    what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    const size_t n = std::strlen(w);
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_word("true")) {
          v.boolean = true;
        } else if (consume_word("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_word("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          u32 cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<u32>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<u32>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<u32>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // The writers only emit \u escapes for control characters; decode
          // the BMP code point as UTF-8 so any valid input round-trips.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    if (peek() == '-') {
      v.negative = true;
      ++pos_;
    }
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
      fail("bad number");
    bool integral = true;
    u64 mag = 0;
    bool overflow = false;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const u64 digit = static_cast<u64>(s_[pos_] - '0');
      if (mag > (0xFFFFFFFFFFFFFFFFull - digit) / 10) overflow = true;
      mag = mag * 10 + digit;
      ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == '.' || s_[pos_] == 'e' ||
                             s_[pos_] == 'E')) {
      integral = false;
      if (s_[pos_] == '.') {
        ++pos_;
        if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
          fail("bad fraction");
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      }
      if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
        if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
          fail("bad exponent");
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      }
    }
    if (integral && !overflow) {
      v.is_integer = true;
      v.integer = mag;
    } else {
      v.is_integer = false;
      try {
        v.real = std::stod(s_.substr(start, pos_ - start));
      } catch (const std::exception&) {
        fail("number out of range");
      }
    }
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace higpu
