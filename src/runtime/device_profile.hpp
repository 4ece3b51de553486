#pragma once
// Analytic device profiles used by the static code analyzer and the
// cost-aware scheduler. These are the scheduler's *beliefs* about the
// machine (peak rates and transfer costs); the actual performance comes
// from the timing simulation, which is how scheduling mispredictions stay
// possible, as in the real system.

#include "common/json_fields.hpp"
#include "common/types.hpp"

namespace ndft::runtime {

/// What the scheduler knows about one execution domain.
struct DeviceProfile {
  DeviceKind kind = DeviceKind::kCpu;
  double peak_gflops = 0.0;   ///< aggregate FP throughput
  double dram_gbps = 0.0;     ///< sustained memory bandwidth
  double link_gbps = 0.0;     ///< bandwidth for moving data to this device
  TimePs switch_latency_ps = 0;  ///< context-switch cost (CXT in Eq. 1)
  /// FP efficiency on blocked/irregular kernels (dense panels, tiled
  /// GEMM). In-order wimpy cores cannot keep their FMA pipes fed through
  /// panel factorisations, so the NDP side carries a penalty here.
  double blocked_compute_efficiency = 1.0;

  /// Machine balance in flop/byte: kernels above are compute-bound here.
  double balance() const noexcept {
    return dram_gbps <= 0.0 ? 1e18 : peak_gflops / dram_gbps;
  }

  /// Table III host CPU reaching HBM through the SerDes links.
  static DeviceProfile table3_cpu();
  /// Table III NDP side: 128 units x 2 wimpy cores with stack-local HBM.
  static DeviceProfile table3_ndp();
  /// Section V Xeon baseline (2x E5-2695, DDR4).
  static DeviceProfile xeon_baseline();

  /// JSON form used by the job-request wire schema and the on-disk
  /// device-profile store; from_json(to_json()) round-trips exactly.
  /// People write profiles, so absent members keep the defaults above;
  /// the rest of the reading rule is in common/json_fields.hpp.
  Json to_json() const;
  static DeviceProfile from_json(const Json& j);
};

/// Field list (common/json_fields.hpp); profiles travel inside job
/// requests and the profile store too.
template <class Io>
void fields(Io& io, DeviceProfile& p) {
  io("kind", p.kind);
  io("peak_gflops", p.peak_gflops);
  io("dram_gbps", p.dram_gbps);
  io("link_gbps", p.link_gbps);
  io("switch_latency_ps", p.switch_latency_ps);
  io("blocked_compute_efficiency", p.blocked_compute_efficiency);
}

}  // namespace ndft::runtime
