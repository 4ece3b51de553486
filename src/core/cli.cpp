#include "core/cli.hpp"

#include <charconv>
#include <limits>

namespace ndft::core {

long parse_int(const std::string& text, long min, long max,
               const std::string& what) {
  long value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  NDFT_REQUIRE(error == std::errc{} && stop == end,
               what + " expects an integer, got '" + text + "'");
  NDFT_REQUIRE(value >= min && value <= max,
               what + " must lie in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "], got " + text);
  return value;
}

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[name] = argv[++i];
      } else {
        flags_[name] = "";
      }
    } else {
      positional_.push_back(token);
    }
  }
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  return parse_int(it->second, std::numeric_limits<long>::min(),
                   std::numeric_limits<long>::max(), "flag --" + name);
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

}  // namespace ndft::core
