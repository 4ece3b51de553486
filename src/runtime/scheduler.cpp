#include "runtime/scheduler.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>

namespace ndft::runtime {

std::span<const char* const> enum_names(Granularity) noexcept {
  static constexpr const char* kNames[] = {"instruction", "block", "function",
                                           "kernel"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(Granularity::kKernel) + 1);
  return kNames;
}

unsigned Scheduler::segments_for(Granularity granularity) {
  switch (granularity) {
    case Granularity::kInstruction: return 512;
    case Granularity::kBasicBlock: return 32;
    case Granularity::kFunction: return 1;
    case Granularity::kKernel: return 1;
  }
  return 1;
}

ExecutionPlan Scheduler::plan(const dft::Workload& workload,
                              Granularity granularity) const {
  if (granularity == Granularity::kKernel) {
    return plan_single_device(workload);
  }
  KernelCosts costs(workload.kernels.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = {sca_->estimate(workload.kernels[i], sca_->cpu()),
                sca_->estimate(workload.kernels[i], sca_->ndp())};
  }
  return plan_with_costs(workload, costs, segments_for(granularity));
}

ExecutionPlan Scheduler::plan_single_device(
    const dft::Workload& workload) const {
  // Whole-iteration granularity: pick the device with the lower summed
  // roofline estimate, no crossings.
  TimePs cpu_total = 0;
  TimePs ndp_total = 0;
  for (const dft::KernelWork& work : workload.kernels) {
    cpu_total += sca_->estimate(work, sca_->cpu());
    ndp_total += sca_->estimate(work, sca_->ndp());
  }
  const DeviceKind device =
      ndp_total < cpu_total ? DeviceKind::kNdp : DeviceKind::kCpu;

  ExecutionPlan plan;
  plan.placements.reserve(workload.kernels.size());
  for (const dft::KernelWork& work : workload.kernels) {
    Placement p;
    p.device = device;
    p.est_time_ps = sca_->estimate(
        work, device == DeviceKind::kNdp ? sca_->ndp() : sca_->cpu());
    plan.placements.push_back(p);
    plan.est_total_ps += p.est_time_ps;
  }
  return plan;
}

ExecutionPlan Scheduler::plan_with_costs(const dft::Workload& workload,
                                         const KernelCosts& costs,
                                         unsigned segments_per_kernel) const {
  // Dynamic program over the linear pipeline. State: which device holds
  // the live data after kernel i. Transition cost: the kernel's cost on
  // the chosen device plus, when the device changes, the Eq. 1 crossing
  // cost for the kernel's input data. Ties go to the CPU, both as the
  // source state and as the terminal one. Sub-function granularities
  // split each kernel into S segments that each pay their own (smaller)
  // DT plus a full CXT when they cross, modelling the ping-pong overhead
  // the paper's Section IV-A1 argues against.
  const std::size_t n = workload.kernels.size();
  ExecutionPlan plan;
  if (n == 0) {
    return plan;
  }
  constexpr TimePs kInf = std::numeric_limits<TimePs>::max() / 4;
  // cost[d] = best total with data on device d after the processed prefix.
  std::array<TimePs, 2> cost{0, 0};
  std::vector<std::array<std::uint8_t, 2>> parent(
      n, std::array<std::uint8_t, 2>{0, 0});

  const auto device_of = [](std::size_t index) {
    return index == 0 ? DeviceKind::kCpu : DeviceKind::kNdp;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const dft::KernelWork& work = workload.kernels[i];
    std::array<TimePs, 2> next{kInf, kInf};
    for (std::size_t to = 0; to < 2; ++to) {
      for (std::size_t from = 0; from < 2; ++from) {
        TimePs c = cost[from] + costs[i][to];
        if (from != to) {
          if (segments_per_kernel <= 1) {
            c += cost_->crossing_cost(work.input_bytes);
          } else {
            // S segments each move input/S and pay a CXT; in the worst
            // (homogeneous-kernel) case every segment crosses once.
            c += segments_per_kernel *
                 cost_->crossing_cost(work.input_bytes /
                                      segments_per_kernel);
          }
        }
        if (c < next[to]) {
          next[to] = c;
          parent[i][to] = static_cast<std::uint8_t>(from);
        }
      }
    }
    cost = next;
  }

  // Backtrack the cheaper terminal state.
  std::size_t state = cost[1] < cost[0] ? 1 : 0;
  std::vector<std::size_t> chosen(n);
  for (std::size_t i = n; i-- > 0;) {
    chosen[i] = state;
    state = parent[i][state];
  }

  plan.placements.resize(n);
  std::size_t previous = chosen[0];
  for (std::size_t i = 0; i < n; ++i) {
    Placement& p = plan.placements[i];
    p.device = device_of(chosen[i]);
    p.est_time_ps = costs[i][chosen[i]];
    p.crossing = (i == 0) ? false : (chosen[i] != previous);
    if (p.crossing) {
      const Bytes input = workload.kernels[i].input_bytes;
      if (segments_per_kernel <= 1) {
        p.transfer_in_ps = cost_->transfer_time(input);
        p.switch_in_ps = cost_->context_switch_time();
      } else {
        p.transfer_in_ps =
            segments_per_kernel *
            cost_->transfer_time(input / segments_per_kernel);
        p.switch_in_ps =
            segments_per_kernel * cost_->context_switch_time();
      }
      plan.crossings += 1;
    }
    plan.est_overhead_ps += p.transfer_in_ps + p.switch_in_ps;
    plan.est_total_ps += p.est_time_ps + p.transfer_in_ps + p.switch_in_ps;
    previous = chosen[i];
  }
  return plan;
}

}  // namespace ndft::runtime
