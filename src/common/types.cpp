#include "common/types.hpp"

#include <iterator>

#include "common/enum_names.hpp"

namespace ndft {

std::span<const char* const> enum_names(DeviceKind) noexcept {
  static constexpr const char* kNames[] = {"CPU", "NDP", "GPU"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(DeviceKind::kGpu) + 1);
  return kNames;
}

const char* to_string(DeviceKind kind) noexcept { return enum_name(kind); }

const char* to_string(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kSequential: return "sequential";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kRandom: return "random";
    case AccessPattern::kBlocked: return "blocked";
  }
  return "?";
}

std::span<const char* const> enum_names(KernelClass) noexcept {
  static constexpr const char* kNames[] = {
      "FFT", "FaceSplit", "GEMM", "SYEVD", "Pseudopotential", "Alltoall",
      "Other"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(KernelClass::kOther) + 1);
  return kNames;
}

const char* to_string(KernelClass kernel_class) noexcept {
  return enum_name(kernel_class);
}

}  // namespace ndft
