#pragma once
// Fundamental scalar types shared by every NDFT module.
//
// All simulated time is kept in integer picoseconds so that clock domains
// with non-commensurate periods (e.g. a 3 GHz CPU against a 1 GHz DRAM bus)
// can be composed without rounding drift.

#include <cstdint>
#include <limits>
#include <span>

namespace ndft {

/// Simulated time in picoseconds.
using TimePs = std::uint64_t;

/// Cycle count within one clock domain.
using Cycles = std::uint64_t;

/// Physical byte address inside the simulated machine.
using Addr = std::uint64_t;

/// Size or traffic volume in bytes.
using Bytes = std::uint64_t;

/// Floating-point operation count.
using Flops = std::uint64_t;

/// Sentinel for "no time" / "never".
inline constexpr TimePs kTimeNever = std::numeric_limits<TimePs>::max();

/// One nanosecond expressed in picoseconds.
inline constexpr TimePs kPsPerNs = 1000;
/// One microsecond expressed in picoseconds.
inline constexpr TimePs kPsPerUs = 1000 * 1000;
/// One millisecond expressed in picoseconds.
inline constexpr TimePs kPsPerMs = 1000ull * 1000 * 1000;
/// One second expressed in picoseconds.
inline constexpr TimePs kPsPerSec = 1000ull * 1000 * 1000 * 1000;

/// Identifies the kind of compute device a task may execute on.
enum class DeviceKind : std::uint8_t {
  kCpu,  ///< host out-of-order cores
  kNdp,  ///< near-data in-order cores in the memory-stack logic layer
  kGpu,  ///< discrete accelerator baseline
};

/// Human-readable name for a device kind.
const char* to_string(DeviceKind kind) noexcept;
/// Names indexed by enumerator: to_string and every JSON document use them.
std::span<const char* const> enum_names(DeviceKind) noexcept;

/// Access-pattern classes recognised by the static code analyzer and used
/// by the trace generator to synthesise representative address streams.
enum class AccessPattern : std::uint8_t {
  kSequential,  ///< unit-stride streaming (e.g. face-splitting product)
  kStrided,     ///< constant non-unit stride (e.g. FFT butterflies, transposes)
  kRandom,      ///< data-dependent scatter/gather (e.g. Alltoall buckets)
  kBlocked,     ///< tiled reuse within a cache-resident block (e.g. GEMM)
};

/// Human-readable name for an access pattern.
const char* to_string(AccessPattern pattern) noexcept;

/// The kernel families that make up LR-TDDFT (paper Fig. 1). Used by the
/// static code analyzer, the GPU model and the reports.
enum class KernelClass : std::uint8_t {
  kFft,             ///< 3D fast Fourier transforms
  kFaceSplit,       ///< face-splitting (point-wise orbital-pair) products
  kGemm,            ///< dense matrix multiplication
  kSyevd,           ///< dense symmetric eigensolve (diagonalization)
  kPseudopotential, ///< nonlocal pseudopotential application
  kAlltoall,        ///< global transpose (MPI_Alltoall)
  kOther,           ///< bookkeeping / miscellaneous
};

/// Human-readable name for a kernel class.
const char* to_string(KernelClass kernel_class) noexcept;
/// Names indexed by enumerator: to_string and every JSON document use them.
std::span<const char* const> enum_names(KernelClass) noexcept;

}  // namespace ndft
