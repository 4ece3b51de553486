#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/str_util.hpp"

namespace ndft {
namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kInt: return "int";
    case Json::Type::kUint: return "uint";
    case Json::Type::kDouble: return "double";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(Json::Type have, const char* want) {
  throw NdftError(strformat("json: value is %s, wanted %s",
                            type_name(have), want));
}

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; emit null like most tolerant writers.
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
  // Keep a trailing marker so integral doubles stay doubles on reparse.
  if (out.find_first_of(".eE", out.size() - std::strlen(buffer)) ==
      std::string::npos) {
    out += ".0";
  }
}

/// Recursive-descent parser over a raw byte range.
class Parser {
 public:
  Parser(const char* begin, const char* end) : cur_(begin), begin_(begin),
                                               end_(end) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (cur_ != end_) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw NdftError(strformat("json parse error at byte %zu: %s",
                              static_cast<std::size_t>(cur_ - begin_),
                              what.c_str()));
  }

  void skip_ws() {
    while (cur_ != end_ &&
           (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' ||
            *cur_ == '\r')) {
      ++cur_;
    }
  }

  char peek() {
    if (cur_ == end_) fail("unexpected end of input");
    return *cur_;
  }

  void expect(char c) {
    if (cur_ == end_ || *cur_ != c) {
      fail(strformat("expected '%c'", c));
    }
    ++cur_;
  }

  bool consume_literal(const char* literal) {
    const char* p = cur_;
    for (const char* l = literal; *l != '\0'; ++l, ++p) {
      if (p == end_ || *p != *l) return false;
    }
    cur_ = p;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_ws();
    if (peek() == '}') { ++cur_; return object; }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      if (object.has(key)) fail("duplicate member \"" + key + "\"");
      skip_ws();
      expect(':');
      object.set(key, parse_value());
      skip_ws();
      if (peek() == ',') { ++cur_; continue; }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_ws();
    if (peek() == ']') { ++cur_; return array; }
    for (;;) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++cur_; continue; }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (cur_ == end_) fail("unterminated string");
      const char c = *cur_++;
      if (c == '"') return out;
      if (c != '\\') { out += c; continue; }
      if (cur_ == end_) fail("unterminated escape");
      const char esc = *cur_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - cur_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *cur_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are
          // not produced by our own writer).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const char* start = cur_;
    if (cur_ != end_ && *cur_ == '-') ++cur_;
    bool integral = true;
    while (cur_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*cur_)) ||
            *cur_ == '.' || *cur_ == 'e' || *cur_ == 'E' || *cur_ == '+' ||
            *cur_ == '-')) {
      if (*cur_ == '.' || *cur_ == 'e' || *cur_ == 'E') integral = false;
      ++cur_;
    }
    if (cur_ == start) fail("expected a value");
    const std::string token(start, cur_);
    errno = 0;
    if (integral) {
      if (token[0] == '-') {
        char* end = nullptr;
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          return Json(v);
        }
      } else {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          // Small non-negative integers stay uint, matching the writer.
          return Json(v);
        }
      }
      // Out-of-range integer literal: fall through to double.
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Json(v);
  }

  const char* cur_;
  const char* begin_;
  const char* end_;
};

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) kind_error(type_, "bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  switch (type_) {
    case Type::kInt: return int_;
    case Type::kUint:
      if (uint_ > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max())) {
        throw NdftError("json: uint value out of int64 range");
      }
      return static_cast<std::int64_t>(uint_);
    case Type::kDouble:
      // Range-check before the cast: out-of-range (or NaN) conversion to
      // integer is undefined behavior, and this accessor ingests
      // externally produced documents.
      if (!(double_ >= -9223372036854775808.0 &&  // -2^63
            double_ < 9223372036854775808.0)) {   // 2^63
        throw NdftError("json: double value out of int64 range");
      }
      return static_cast<std::int64_t>(double_);
    default: kind_error(type_, "number");
  }
}

std::uint64_t Json::as_uint() const {
  switch (type_) {
    case Type::kUint: return uint_;
    case Type::kInt:
      if (int_ < 0) throw NdftError("json: negative value as uint");
      return static_cast<std::uint64_t>(int_);
    case Type::kDouble:
      if (!(double_ >= 0.0 &&
            double_ < 18446744073709551616.0)) {  // 2^64
        throw NdftError("json: double value out of uint64 range");
      }
      return static_cast<std::uint64_t>(double_);
    default: kind_error(type_, "number");
  }
}

double Json::as_double() const {
  switch (type_) {
    case Type::kDouble: return double_;
    case Type::kInt: return static_cast<double>(int_);
    case Type::kUint: return static_cast<double>(uint_);
    // JSON cannot represent NaN/Inf; the writer collapses them to null,
    // and they read back as NaN so a stored result stays ingestible.
    case Type::kNull: return std::numeric_limits<double>::quiet_NaN();
    default: kind_error(type_, "number");
  }
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) kind_error(type_, "string");
  return string_;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) kind_error(type_, "array");
  array_.push_back(std::move(value));
}

const Json& Json::operator[](std::size_t index) const {
  if (type_ != Type::kArray) kind_error(type_, "array");
  if (index >= array_.size()) {
    throw NdftError(strformat("json: index %zu out of range (size %zu)",
                              index, array_.size()));
  }
  return array_[index];
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) kind_error(type_, "array");
  return array_;
}

void Json::set(const std::string& key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) kind_error(type_, "object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

bool Json::has(const std::string& key) const noexcept {
  return find(key) != nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw NdftError(strformat("json: missing member \"%s\"", key.c_str()));
  }
  return *value;
}

const Json* Json::find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) kind_error(type_, "object");
  return object_;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += strformat("%lld",
                                      static_cast<long long>(int_)); break;
    case Type::kUint:
      out += strformat("%llu", static_cast<unsigned long long>(uint_));
      break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        append_escaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.parse_document();
}

}  // namespace ndft
