#pragma once
// Minimal command-line front end shared by the `ndft_run` tool: parses
// --atoms/--mode/--granularity style flags without external dependencies.
// parse_int is the one integer reader behind every numeric flag of the
// examples and of the ndft_serve / ndft_scatter daemons.

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ndft::core {

/// Parses all of `text` as a base-10 integer in [min, max]. Throws
/// NdftError naming `what` when the text is empty, carries anything but
/// an optional '-' and digits ("8x", " 8", "+8"), or is out of range.
long parse_int(const std::string& text, long min, long max,
               const std::string& what);

/// Parsed command line: --key value pairs plus positional arguments.
class CliArgs {
 public:
  /// Parses argv; flags take the next token as their value.
  CliArgs(int argc, const char* const* argv);

  /// Value of --name, or `fallback` when absent.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;

  /// Integer flag with fallback; throws NdftError on malformed input
  /// (parse_int over the full range of long).
  long get_int(const std::string& name, long fallback) const;

  /// True when --name was passed (with or without a value).
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ndft::core
