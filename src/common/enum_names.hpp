#pragma once
// Enum <-> name tables. Every enum with a serialized spelling declares,
// beside its to_string, one ADL-visible table of names indexed by
// enumerator value:
//
//   std::span<const char* const> enum_names(MyEnum) noexcept;
//
// to_string, the JSON field layer (common/json_fields.hpp) and the
// command-line parsers all read that one table.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace ndft {

/// Position of `name` in `names`, if present.
inline std::optional<std::size_t> name_index(
    std::span<const char* const> names, std::string_view name) noexcept {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return i;
  }
  return std::nullopt;
}

/// The name of `value`, or "?" for a value outside its table.
template <class E>
const char* enum_name(E value) noexcept {
  const std::span<const char* const> names = enum_names(value);
  const auto index = static_cast<std::size_t>(value);
  return index < names.size() ? names[index] : "?";
}

/// The enumerator named `name`, if any.
template <class E>
std::optional<E> enum_from_name(std::string_view name) noexcept {
  const std::optional<std::size_t> index = name_index(enum_names(E{}), name);
  if (!index) return std::nullopt;
  return static_cast<E>(*index);
}

}  // namespace ndft
