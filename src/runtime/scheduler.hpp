#pragma once
// Cost-aware workload partitioning and scheduling (Section IV-A).
//
// Kernels are offloaded at *function* granularity: each pipeline stage is
// placed on the CPU or the NDP side by a dynamic program over the linear
// kernel chain that minimises estimated execution time plus the Eq. 1
// crossing overheads (DT + CXT at every CPU<->NDP boundary).
//
// The granularity ablation (A1 in bench/paper_claims.cpp) models the
// paper's argument for function-level offload: finer granularities split
// each function into segments that each pay their own crossing overhead,
// while coarser granularity forces the whole iteration onto one device.

#include <array>
#include <span>
#include <vector>

#include "dft/workload.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/sca.hpp"

namespace ndft::runtime {

/// Offload granularity choices of Section IV-A1.
enum class Granularity {
  kInstruction,  ///< every ~instruction group is a schedulable segment
  kBasicBlock,   ///< basic-block segments
  kFunction,     ///< one decision per kernel (NDFT's choice)
  kKernel,       ///< the whole iteration runs on a single device
};
/// Names indexed by enumerator ("instruction", "block", "function",
/// "kernel"), as JSON documents and command lines spell them.
std::span<const char* const> enum_names(Granularity) noexcept;

/// Placement decision for one kernel.
struct Placement {
  DeviceKind device = DeviceKind::kCpu;
  TimePs est_time_ps = 0;       ///< SCA's roofline estimate on that device
  TimePs transfer_in_ps = 0;    ///< DT paid before the kernel starts
  TimePs switch_in_ps = 0;      ///< CXT paid before the kernel starts
  bool crossing = false;        ///< true if the device changed here
};

/// The full schedule for a workload.
struct ExecutionPlan {
  std::vector<Placement> placements;  ///< one per kernel, pipeline order
  TimePs est_total_ps = 0;            ///< estimate incl. overheads
  TimePs est_overhead_ps = 0;         ///< sum of DT + CXT terms
  unsigned crossings = 0;             ///< CPU<->NDP boundary count

  /// Fraction of the estimated total spent on scheduling overhead.
  double overhead_fraction() const noexcept {
    return est_total_ps == 0
               ? 0.0
               : static_cast<double>(est_overhead_ps) /
                     static_cast<double>(est_total_ps);
  }
};

/// Estimated time of each kernel on {CPU, NDP}, in pipeline order.
using KernelCosts = std::vector<std::array<TimePs, 2>>;

/// The cost-aware offloading scheduler.
class Scheduler {
 public:
  Scheduler(const Sca& sca, const CostModel& cost)
      : sca_(&sca), cost_(&cost) {}

  /// Builds the minimal-cost plan for `workload` at the given granularity.
  ExecutionPlan plan(const dft::Workload& workload,
                     Granularity granularity = Granularity::kFunction) const;

  /// The one dynamic program over the linear kernel chain: places each
  /// kernel on the CPU or the NDP side to minimise its `costs` entry (one
  /// per kernel, in pipeline order) plus the Eq. 1 crossing overheads. plan() feeds it the SCA's roofline
  /// estimates; AdaptiveScheduler feeds it its believed times.
  /// `segments_per_kernel` only matters for sub-function granularities:
  /// it is how many independently-scheduled segments each kernel splits
  /// into (each segment pays its own crossing overhead when it moves).
  ExecutionPlan plan_with_costs(const dft::Workload& workload,
                                const KernelCosts& costs,
                                unsigned segments_per_kernel = 1) const;

  /// Segment count a granularity implies for one kernel.
  static unsigned segments_for(Granularity granularity);

 private:
  ExecutionPlan plan_single_device(const dft::Workload& workload) const;

  const Sca* sca_;
  const CostModel* cost_;
};

}  // namespace ndft::runtime
