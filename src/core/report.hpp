#pragma once
// Run reports: per-kernel timing breakdowns in the shape of the paper's
// Figure 7, plus footprints and communication statistics.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dft/workload.hpp"
#include "runtime/pseudo_store.hpp"

namespace ndft::core {

/// Execution mode (machine) for a run.
enum class ExecMode {
  kCpuBaseline,  ///< Section V Xeon server
  kGpuBaseline,  ///< Section V DGX-1
  kNdpOnly,      ///< all kernels on NDP, replicated pseudopotentials
  kNdft,         ///< the paper's co-design (scheduler + shared blocks)
};

/// Human-readable machine name.
const char* to_string(ExecMode mode) noexcept;
/// Names indexed by enumerator: to_string and every JSON document use them.
std::span<const char* const> enum_names(ExecMode) noexcept;

/// One kernel's simulated execution.
struct KernelTime {
  std::string name;
  KernelClass cls = KernelClass::kOther;
  DeviceKind device = DeviceKind::kCpu;
  TimePs time_ps = 0;
  double memory_energy_mj = 0.0;  ///< this kernel's share of the total
  Bytes mesh_bytes = 0;           ///< NDP fabric traffic it caused
  Bytes sharing_bytes = 0;        ///< pseudopotential sharing traffic
};

/// Result of simulating one LR-TDDFT iteration on one machine.
struct RunReport {
  ExecMode mode = ExecMode::kCpuBaseline;
  dft::SystemDims dims;
  std::vector<KernelTime> kernels;
  TimePs sched_overhead_ps = 0;  ///< Eq. 1 crossings (NDFT only)
  runtime::PseudoFootprint pseudo;
  Bytes mesh_bytes = 0;      ///< NDP fabric traffic, summed over kernels
  Bytes sharing_bytes = 0;   ///< pseudopotential sharing traffic (NDFT)
  /// Memory-system energy (DRAM + fabric; GPU: HBM + PCIe) in millijoules,
  /// scaled up from the sampled windows like the kernel times; the sum of
  /// the kernels' shares in kernel order.
  double memory_energy_mj = 0.0;
  /// Bounded roll-up of the simulated components' StatSet counters,
  /// aggregated per component class ("mesh.hops", "dram.row_hits",
  /// "serdes.backpressure_stall_ps", ...): counters sum across instances
  /// and kernels (a repeated kernel counts once per occurrence), *_peak
  /// keys take the maximum, and "dram.channel_utilization" is the derived
  /// fraction of aggregate DRAM peak bandwidth used over the kernels'
  /// summed sampled windows. The key set is fixed by an allowlist (never
  /// one key per channel/core), so payload size does not scale with the
  /// machine. Empty for the analytic GPU baseline.
  std::map<std::string, double> stats;

  /// Total simulated time including scheduling overhead.
  TimePs total_ps() const noexcept;

  /// Summed time of all kernels of one class.
  TimePs time_of(KernelClass cls) const noexcept;

  /// The paper's "Global Comm" bucket: Alltoall plus sharing traffic time.
  TimePs global_comm_ps() const noexcept {
    return time_of(KernelClass::kAlltoall);
  }

  /// Renders the Fig. 7-style breakdown as an aligned text table.
  std::string render() const;
};

/// Speedup of `baseline` over `candidate` (how much faster candidate is).
double speedup(const RunReport& baseline, const RunReport& candidate);

/// Renders the Fig. 7-style per-kernel table for any kernel list (shared
/// by RunReport::render and the serialized-payload consumers, so the two
/// presentations cannot drift apart).
std::string render_kernel_table(ExecMode mode, std::size_t atoms,
                                const std::vector<KernelTime>& kernels,
                                TimePs total_ps, TimePs sched_overhead_ps,
                                double memory_energy_mj);

}  // namespace ndft::core
