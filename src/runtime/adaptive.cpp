#include "runtime/adaptive.hpp"

namespace ndft::runtime {

namespace {
/// Weight of the newest sample in the moving average.
constexpr double kBlend = 0.5;
}  // namespace

void AdaptiveScheduler::record(const std::string& kernel_name,
                               DeviceKind device, TimePs measured_ps) {
  const auto key = std::make_pair(kernel_name, device);
  const auto it = measurements_.find(key);
  if (it == measurements_.end()) {
    measurements_[key] = static_cast<double>(measured_ps);
  } else {
    it->second = (1.0 - kBlend) * it->second +
                 kBlend * static_cast<double>(measured_ps);
  }
}

std::size_t AdaptiveScheduler::record_trace(const KernelTrace& trace) {
  std::size_t recorded = 0;
  for (const TraceEvent& event : trace.events) {
    if (!(event.host_ms > 0.0)) {
      continue;  // zero-time events carry no timing signal
    }
    DeviceKind device = DeviceKind::kCpu;
    if (event.stage == "sim[ndp]") {
      device = DeviceKind::kNdp;
    } else if (event.stage == "sim[gpu]") {
      device = DeviceKind::kGpu;
    }
    record(event.name, device, static_cast<TimePs>(event.host_ms * 1e9));
    ++recorded;
  }
  return recorded;
}

bool AdaptiveScheduler::has_measurement(const std::string& kernel_name,
                                        DeviceKind device) const {
  return measurements_.count({kernel_name, device}) != 0;
}

TimePs AdaptiveScheduler::believed_time(const dft::KernelWork& kernel,
                                        DeviceKind device) const {
  const auto it = measurements_.find({kernel.name, device});
  if (it != measurements_.end()) {
    return static_cast<TimePs>(it->second);
  }
  return sca_->estimate(kernel, device == DeviceKind::kNdp ? sca_->ndp()
                                                           : sca_->cpu());
}

ExecutionPlan AdaptiveScheduler::plan(const dft::Workload& workload) const {
  KernelCosts costs(workload.kernels.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = {believed_time(workload.kernels[i], DeviceKind::kCpu),
                believed_time(workload.kernels[i], DeviceKind::kNdp)};
  }
  return Scheduler(*sca_, *cost_).plan_with_costs(workload, costs);
}

}  // namespace ndft::runtime
