#pragma once
// Profile-guided refinement of the static schedule.
//
// The paper's SCA is purely static; its roofline estimates can mispredict
// when a kernel's cache behaviour diverges from its nominal intensity.
// AdaptiveScheduler keeps a table of *measured* per-(kernel, device)
// execution times and re-plans with measurements substituted for
// estimates — the classic profile-guided refinement loop layered on top
// of the Section IV-A mechanism. Ablation A5 of bench/paper_claims.cpp
// quantifies how much of the static plan's regret this recovers when the
// SCA is fed a wrong machine profile.

#include <map>
#include <string>

#include "common/kernel_trace.hpp"
#include "runtime/scheduler.hpp"

namespace ndft::runtime {

/// A scheduler that blends SCA estimates with runtime measurements.
class AdaptiveScheduler {
 public:
  AdaptiveScheduler(const Sca& sca, const CostModel& cost)
      : sca_(&sca), cost_(&cost) {}

  /// Records a measured execution time for one kernel on one device.
  /// Repeated measurements are blended with an exponential moving average.
  void record(const std::string& kernel_name, DeviceKind device,
              TimePs measured_ps);

  /// Feeds a whole kernel trace into the measurement table: one record()
  /// per event, with the device decoded from the event's stage label —
  /// "sim[ndp]" -> NDP, "sim[gpu]" -> GPU, anything else (measured host
  /// traces and "sim[cpu]") -> CPU — and host_ms converted to picoseconds.
  /// This is how simulator-emitted traces (SimulateJob::record_trace)
  /// close the loop back into profile-guided planning. Returns the number
  /// of events recorded (zero-time events are skipped).
  std::size_t record_trace(const KernelTrace& trace);

  /// True if a measurement exists for this (kernel, device).
  bool has_measurement(const std::string& kernel_name,
                       DeviceKind device) const;

  /// The current belief about a kernel's time on a device: the recorded
  /// measurement when available, the SCA roofline estimate otherwise.
  TimePs believed_time(const dft::KernelWork& kernel,
                       DeviceKind device) const;

  /// Scheduler::plan_with_costs over believed_time() on each side: with
  /// no measurements, exactly Scheduler::plan at function granularity.
  ExecutionPlan plan(const dft::Workload& workload) const;

  /// Number of recorded (kernel, device) entries.
  std::size_t measurement_count() const noexcept {
    return measurements_.size();
  }

 private:
  const Sca* sca_;
  const CostModel* cost_;
  std::map<std::pair<std::string, DeviceKind>, double> measurements_;
};

}  // namespace ndft::runtime
