#include "runtime/device_profile.hpp"

#include "common/units.hpp"

namespace ndft::runtime {

DeviceProfile DeviceProfile::table3_cpu() {
  DeviceProfile p;
  p.kind = DeviceKind::kCpu;
  p.peak_gflops = 8 * 3.0 * 32.0;  // 8 cores x 3 GHz x 32 flop/cyc
  p.dram_gbps = 100.0;             // HBM over 4 SerDes links, sustained
  p.link_gbps = 250.0;             // data relocation into CPU-friendly layout
  p.switch_latency_ps = 20 * kPsPerUs;
  p.blocked_compute_efficiency = 0.65;  // wide OoO cores on dense panels
  return p;
}

DeviceProfile DeviceProfile::table3_ndp() {
  DeviceProfile p;
  p.kind = DeviceKind::kNdp;
  p.peak_gflops = 256 * 2.0 * 0.8;   // 256 cores x 2 GHz x 0.8 flop/cyc
  p.dram_gbps = 2000.0;              // stack-local HBM, sustained aggregate
  p.link_gbps = 250.0;
  p.switch_latency_ps = 20 * kPsPerUs;
  p.blocked_compute_efficiency = 0.5;  // in-order cores on dense panels
  return p;
}

DeviceProfile DeviceProfile::xeon_baseline() {
  DeviceProfile p;
  p.kind = DeviceKind::kCpu;
  p.peak_gflops = 24 * 2.4 * 16.0;  // 24 cores x 2.4 GHz x 16 flop/cyc
  p.dram_gbps = 60.0;               // 4-channel DDR4-2400, sustained
  p.link_gbps = 60.0;
  p.switch_latency_ps = 0;
  p.blocked_compute_efficiency = 0.45;  // dual-socket NUMA panel scaling
  return p;
}

Json DeviceProfile::to_json() const { return fields_to_json(*this); }

DeviceProfile DeviceProfile::from_json(const Json& j) {
  DeviceProfile profile;
  fields_from_json(j, profile);
  return profile;
}

}  // namespace ndft::runtime
