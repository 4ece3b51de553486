#pragma once
// Minimal JSON document model used for machine-consumable output
// (JobResult serialization, BENCH_*.json emitters) and for reading it
// back (round-trip tests, result ingestion). No external dependencies.
//
// Design points:
//  - Objects preserve insertion order, so serialization is deterministic:
//    the same value always dumps to the same string.
//  - Numbers keep their arithmetic kind (int64 / uint64 / double) so
//    64-bit counters (TimePs, Bytes, Flops) survive a round trip exactly.
//    Doubles are printed with %.17g, enough digits to reparse bit-exactly;
//    non-finite doubles (no JSON spelling) are written as null and read
//    back as NaN.
//  - parse() accepts exactly what dump() produces plus ordinary JSON
//    (whitespace, escapes, nested containers); malformed input, including
//    an object that repeats a member name, throws NdftError with a byte
//    offset.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ndft {

/// One JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(int value) : type_(Type::kInt), int_(value) {}
  Json(long value) : type_(Type::kInt), int_(value) {}
  Json(long long value) : type_(Type::kInt), int_(value) {}
  Json(unsigned value) : type_(Type::kUint), uint_(value) {}
  Json(unsigned long value) : type_(Type::kUint), uint_(value) {}
  Json(unsigned long long value) : type_(Type::kUint), uint_(value) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  /// Empty array / object values (distinct from null).
  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_number() const noexcept {
    return type_ == Type::kInt || type_ == Type::kUint ||
           type_ == Type::kDouble;
  }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw NdftError on kind mismatch. The numeric
  /// accessors convert freely between the three number kinds (with a
  /// range check for the integer ones). as_double() additionally reads
  /// null as NaN: JSON has no non-finite numbers, so the writer emits
  /// null for NaN/Inf and this keeps such documents ingestible.
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  // ---- array interface.
  void push_back(Json value);
  std::size_t size() const noexcept { return array_.size(); }
  const Json& operator[](std::size_t index) const;
  const std::vector<Json>& items() const;

  // ---- object interface (insertion-ordered; set() replaces in place).
  void set(const std::string& key, Json value);
  bool has(const std::string& key) const noexcept;
  /// Member lookup; throws NdftError when the key is absent.
  const Json& at(const std::string& key) const;
  /// Member lookup; nullptr when absent.
  const Json* find(const std::string& key) const noexcept;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serializes the value. `indent` > 0 pretty-prints with that many
  /// spaces per level; 0 emits the compact single-line form.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document (trailing whitespace allowed,
  /// trailing garbage rejected). Throws NdftError on malformed input.
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace ndft
