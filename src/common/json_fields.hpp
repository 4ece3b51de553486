#pragma once
// The field layer: every JSON document the program writes or reads is
// described by one field list per struct,
//
//   template <class Io> void fields(Io& io, MyStruct& s) {
//     io("name", s.name);
//     io("grid", s.grid);
//   }
//
// declared in the struct's namespace (found by argument-dependent lookup)
// and listing the members in emission order. fields_to_json walks the
// list with a JsonWriter and fields_from_json with a JsonReader, so each
// member is named once and the two directions cannot drift apart.
//
// Member types: bool, unsigned/signed integers, double, std::string,
// enums with an enum_names table (common/enum_names.hpp), Json (carried
// verbatim), fixed arrays, std::vector, std::map<std::string, T>,
// std::optional (null when empty) and structs with their own field list.
//
// The reader applies one rule to every document (docs/API.md, "JSON
// documents"); each violation throws NdftError naming the member's path:
//  - a member the field list does not name;
//  - a value of the wrong JSON type, including a non-object where an
//    object belongs (a double also takes null, the writer's spelling of
//    NaN and infinities);
//  - an integer member given anything but an integer literal in its C++
//    type's range;
//  - an enum member given a name outside its table;
//  - an absent member in a document only the program writes
//    (JsonAuthor::kProgram). Documents people write keep the struct's
//    value for absent members, and so does every document for members
//    the writer omits at their default (omit_default).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/enum_names.hpp"
#include "common/json.hpp"

namespace ndft {

/// Who writes a document, which decides what an absent member means.
enum class JsonAuthor {
  kPeople,   ///< absent members keep the struct's value
  kProgram,  ///< absent members are errors (omit_default ones excepted)
};

namespace json_detail {

template <class T, template <class...> class Template>
inline constexpr bool kIs = false;
template <template <class...> class Template, class... Args>
inline constexpr bool kIs<Template<Args...>, Template> = true;

/// Where a value sits in its document, for error messages: a member name,
/// or an array index when `name` is null. The root has no parent.
struct Path {
  const Path* parent = nullptr;
  const char* name = nullptr;
  std::size_t index = 0;
};

[[noreturn]] void fail(const Path& path, const std::string& what);
[[noreturn]] void fail_integer(const Path& path, std::intmax_t lowest,
                               std::uintmax_t highest);

template <class T>
bool is_default(const T& value) {
  if constexpr (kIs<T, std::optional>) {
    return !value.has_value();
  } else if constexpr (requires { value.empty(); }) {
    return value.empty();
  } else {
    return value == T{};
  }
}

template <class V, std::size_t... I>
V variant_with_index(std::size_t index, std::index_sequence<I...>) {
  V value;
  ((index == I ? (void)value.template emplace<I>() : void()), ...);
  return value;
}

}  // namespace json_detail

/// Builds a JSON object from a field list. Besides io(name, member), a
/// field list may use the directives below; JsonReader reads each back.
class JsonWriter {
 public:
  explicit JsonWriter(Json& object) : object_(object) {}

  template <class T>
  void operator()(const char* name, const T& member) {
    object_.set(name, write(member));
  }

  /// A member that must be present even in documents people write.
  template <class T>
  void required(const char* name, const T& member) {
    (*this)(name, member);
  }

  /// A member left out while it holds its default (empty container,
  /// disengaged optional, false); an optional is written unwrapped.
  template <class T>
  void omit_default(const char* name, const T& member) {
    if (json_detail::is_default(member)) return;
    if constexpr (json_detail::kIs<T, std::optional>) {
      (*this)(name, *member);
    } else {
      (*this)(name, member);
    }
  }

  /// The document's "schema" tag (always required) and its author.
  void schema(const char* tag, JsonAuthor) { object_.set("schema", tag); }

  /// A nested object whose members belong to the enclosing struct;
  /// `list` is called with the nested object's Io.
  template <class List>
  void object(const char* name, List&& list) {
    Json nested = Json::object();
    JsonWriter writer(nested);
    list(writer);
    object_.set(name, std::move(nested));
  }

  /// A read-only member naming a preset that replaces the whole value
  /// before the members after it apply. Never written.
  template <class T, std::size_t N>
  void rebase(const char*, const T&,
              const std::pair<const char*, T (*)()> (&)[N]) {}

  /// A variant as two members: `tag` names the alternative (`names` is
  /// indexed like the alternatives) and `body` holds it. Both required.
  template <class... T>
  void variant(const char* tag, const char* body,
               const std::variant<T...>& value,
               std::span<const char* const> names) {
    object_.set(tag, names[value.index()]);
    std::visit([&](const auto& alternative) { (*this)(body, alternative); },
               value);
  }

  /// A member holding whichever optional is engaged (null when none).
  /// The reader picks the optional `names` maps `tag` to, where `tag`
  /// is a member read earlier in the list.
  template <class... T>
  void one_of(const char* name, const std::string&,
              std::span<const char* const>,
              const std::optional<T>&... alternatives) {
    Json value;
    ((value.is_null() && alternatives
          ? (void)(value = write(*alternatives))
          : void()),
     ...);
    object_.set(name, std::move(value));
  }

  /// The JSON form of one value.
  template <class T>
  static Json write(const T& value) {
    if constexpr (std::is_arithmetic_v<T> || std::is_same_v<T, std::string> ||
                  std::is_same_v<T, Json>) {
      return Json(value);
    } else if constexpr (std::is_enum_v<T>) {
      return Json(enum_name(value));
    } else if constexpr (std::is_array_v<T> ||
                         json_detail::kIs<T, std::vector>) {
      Json array = Json::array();
      for (const auto& item : value) array.push_back(write(item));
      return array;
    } else if constexpr (json_detail::kIs<T, std::optional>) {
      return value ? write(*value) : Json();
    } else if constexpr (json_detail::kIs<T, std::map>) {
      Json object = Json::object();
      for (const auto& [name, item] : value) object.set(name, write(item));
      return object;
    } else {
      Json object = Json::object();
      JsonWriter writer(object);
      // Field lists take a mutable struct so one list serves both
      // directions; the writer only reads through it.
      fields(writer, const_cast<T&>(value));
      return object;
    }
  }

 private:
  Json& object_;
};

/// Fills a struct from a JSON object through its field list, under the
/// rule in the header comment.
class JsonReader {
 public:
  using Path = json_detail::Path;

  /// Throws unless `object` is a JSON object.
  JsonReader(const Json& object, const Path& path, bool absent_is_error);

  template <class T>
  void operator()(const char* name, T& member) {
    read_member(name, member, absent_is_error_);
  }

  template <class T>
  void required(const char* name, T& member) {
    read_member(name, member, true);
  }

  template <class T>
  void omit_default(const char* name, T& member) {
    const Json* value = find(name);
    if (value == nullptr) return;
    if constexpr (json_detail::kIs<T, std::optional>) {
      read(*value, member.emplace(), at(name));
    } else {
      read(*value, member, at(name));
    }
  }

  void schema(const char* tag, JsonAuthor author);

  template <class List>
  void object(const char* name, List&& list) {
    const Json* value = find(name);
    if (value == nullptr) {
      if (absent_is_error_) missing(name);
      return;
    }
    JsonReader reader(*value, at(name), absent_is_error_);
    list(reader);
    reader.finish();
  }

  template <class T, std::size_t N>
  void rebase(const char* name, T& value,
              const std::pair<const char*, T (*)()> (&presets)[N]) {
    const Json* member = find(name);
    if (member == nullptr) return;
    std::string preset;
    read(*member, preset, at(name));
    for (const auto& [preset_name, make] : presets) {
      if (preset == preset_name) {
        value = make();
        return;
      }
    }
    json_detail::fail(at(name), "has unknown name '" + preset + "'");
  }

  template <class... T>
  void variant(const char* tag, const char* body, std::variant<T...>& value,
               std::span<const char* const> names) {
    std::string kind;
    required(tag, kind);
    const std::optional<std::size_t> index = name_index(names, kind);
    if (!index || *index >= sizeof...(T)) {
      json_detail::fail(at(tag), "has unknown name '" + kind + "'");
    }
    value = json_detail::variant_with_index<std::variant<T...>>(
        *index, std::index_sequence_for<T...>{});
    std::visit([&](auto& alternative) { required(body, alternative); },
               value);
  }

  template <class... T>
  void one_of(const char* name, const std::string& tag,
              std::span<const char* const> names,
              std::optional<T>&... alternatives) {
    (alternatives.reset(), ...);
    const Json* value = find(name);
    if (value == nullptr) {
      if (absent_is_error_) missing(name);
      return;
    }
    if (value->is_null()) return;
    const std::optional<std::size_t> index = name_index(names, tag);
    if (!index || *index >= sizeof...(T)) {
      json_detail::fail(at(name), "has no form for kind '" + tag + "'");
    }
    std::size_t i = 0;
    ((i++ == *index ? read(*value, alternatives.emplace(), at(name))
                    : void()),
     ...);
  }

  /// Throws on the first member the field list did not name.
  void finish() const;

 private:
  Path at(const char* name) const { return Path{&path_, name, 0}; }
  const Json* find(const char* name);
  [[noreturn]] void missing(const char* name) const;

  template <class T>
  void read_member(const char* name, T& member, bool required) {
    const Json* value = find(name);
    if (value == nullptr) {
      if (required) missing(name);
      return;
    }
    read(*value, member, at(name));
  }

  template <class T>
  void read(const Json& json, T& value, const Path& path) const {
    using Type = Json::Type;
    if constexpr (std::is_same_v<T, bool>) {
      if (json.type() != Type::kBool) json_detail::fail(path, "must be a bool");
      value = json.as_bool();
    } else if constexpr (std::is_integral_v<T>) {
      if (json.type() == Type::kUint && std::in_range<T>(json.as_uint())) {
        value = static_cast<T>(json.as_uint());
      } else if (json.type() == Type::kInt &&
                 std::in_range<T>(json.as_int())) {
        value = static_cast<T>(json.as_int());
      } else {
        json_detail::fail_integer(path, std::numeric_limits<T>::lowest(),
                                  std::numeric_limits<T>::max());
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!json.is_number() && !json.is_null()) {
        json_detail::fail(path, "must be a number");
      }
      value = static_cast<T>(json.as_double());
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (json.type() != Type::kString) {
        json_detail::fail(path, "must be a string");
      }
      value = json.as_string();
    } else if constexpr (std::is_same_v<T, Json>) {
      value = json;
    } else if constexpr (std::is_enum_v<T>) {
      if (json.type() != Type::kString) {
        json_detail::fail(path, "must be a string");
      }
      const std::optional<T> named = enum_from_name<T>(json.as_string());
      if (!named) {
        json_detail::fail(path,
                          "has unknown name '" + json.as_string() + "'");
      }
      value = *named;
    } else if constexpr (std::is_array_v<T>) {
      constexpr std::size_t kSize = std::extent_v<T>;
      if (!json.is_array() || json.size() != kSize) {
        json_detail::fail(path, "must be an array of " +
                                    std::to_string(kSize) + " entries");
      }
      for (std::size_t i = 0; i < kSize; ++i) {
        read(json[i], value[i], Path{&path, nullptr, i});
      }
    } else if constexpr (json_detail::kIs<T, std::vector>) {
      if (!json.is_array()) json_detail::fail(path, "must be an array");
      value.clear();
      value.reserve(json.size());
      for (std::size_t i = 0; i < json.size(); ++i) {
        read(json[i], value.emplace_back(), Path{&path, nullptr, i});
      }
    } else if constexpr (json_detail::kIs<T, std::optional>) {
      if (json.is_null()) {
        value.reset();
      } else {
        read(json, value.emplace(), path);
      }
    } else if constexpr (json_detail::kIs<T, std::map>) {
      if (!json.is_object()) json_detail::fail(path, "must be an object");
      value.clear();
      for (const auto& [name, item] : json.members()) {
        read(item, value[name], Path{&path, name.c_str(), 0});
      }
    } else {
      JsonReader reader(json, path, absent_is_error_);
      fields(reader, value);
      reader.finish();
    }
  }

  const Json& object_;
  Path path_;
  bool absent_is_error_;
  std::vector<bool> seen_;  ///< members the field list named so far
};

/// Serializes `value` through its field list.
template <class T>
Json fields_to_json(const T& value) {
  return JsonWriter::write(value);
}

/// Reads `json` into `value` through its field list. Absent members keep
/// `value`'s own unless the document's schema says the program wrote it.
template <class T>
void fields_from_json(const Json& json, T& value) {
  JsonReader reader(json, json_detail::Path{}, false);
  fields(reader, value);
  reader.finish();
}

}  // namespace ndft
