#pragma once
// NdftSystem: the public facade of the framework.
//
// Builds the paper's three machines from a SystemConfig, constructs the
// LR-TDDFT workload for a silicon system, and simulates one iteration in
// any of the four execution modes (CPU baseline, GPU baseline, NDP-only,
// NDFT). Timing for CPU/NDP modes is trace-driven through the cache/DRAM/
// mesh models; the GPU baseline is analytic (see src/gpu).

#include <memory>

#include "core/report.hpp"
#include "core/system_config.hpp"
#include "dft/workload.hpp"
#include "runtime/scheduler.hpp"

namespace ndft::core {

/// The simulated-machine template of the framework. Thread-safe: the
/// instance itself is immutable after construction, and each kernel of a
/// run is simulated on a machine (event queue, caches, DRAM, fabric)
/// built for it alone, so any number of concurrent runs may share one
/// instance. ndft::api::Engine relies on this to execute concurrent
/// SimulateJobs against a single template; prefer entering through the
/// Engine rather than using this class directly.
///
/// A kernel's simulated time, energy, traffic and counters are a function
/// of its descriptor (every KernelWork field but the name), its device,
/// the mode and the SystemConfig alone: never of the kernels around it.
/// A run simulates each distinct (descriptor, device) once, the distinct
/// kernels spread over the thread pool, and assembles the report in
/// kernel order.
class NdftSystem {
 public:
  explicit NdftSystem(SystemConfig config = SystemConfig::paper_default());

  /// The representative LR-TDDFT iteration for an Si_n system.
  dft::Workload workload_for(std::size_t atoms) const;

  /// A measured workload rebuilt from a recorded kernel trace; plan() and
  /// run() accept it interchangeably with the analytic model (the
  /// co-design loop: record a real DFT run, replay it on the simulated
  /// machine).
  dft::Workload workload_from_trace(const KernelTrace& trace) const;

  /// The cost-aware schedule NDFT would use for a workload.
  runtime::ExecutionPlan plan(
      const dft::Workload& workload,
      runtime::Granularity granularity =
          runtime::Granularity::kFunction) const;

  /// Simulates one iteration of `workload` on the chosen machine. While a
  /// fault spec is armed the kernels run serially on the calling thread,
  /// in kernel order.
  RunReport run(const dft::Workload& workload, ExecMode mode) const;

  /// Convenience: workload_for(atoms) + run().
  RunReport run(std::size_t atoms, ExecMode mode) const;

  /// Simulates the CPU-NDP machine under a caller-provided schedule
  /// (e.g. from the adaptive scheduler or a what-if experiment).
  RunReport run_planned(const dft::Workload& workload,
                        const runtime::ExecutionPlan& plan) const;

  const SystemConfig& config() const noexcept { return config_; }

 private:
  RunReport run_gpu_baseline(const dft::Workload& workload) const;
  /// The trace-driven modes: the kernels on the devices `plan` names
  /// (the Xeon for every kernel in the CPU baseline).
  RunReport run_simulated(const dft::Workload& workload,
                          const runtime::ExecutionPlan& plan,
                          ExecMode mode) const;

  SystemConfig config_;
};

}  // namespace ndft::core
