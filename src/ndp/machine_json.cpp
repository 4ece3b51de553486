// "ndft.machine.v1": the JSON hardware description of the NDP machine
// (M2NDP-style). A machine document parameterizes every SimObject of the
// simulated system — mesh geometry/links, per-stack NDP units and cores,
// L1s, HBM timing/geometry, SPM, SerDes — so hardware sweeps are data, not
// recompiles. People write machine documents: absent members inherit the
// Table-III defaults, and everything else follows the one reading rule of
// every JSON document (docs/API.md, "JSON documents"), so a typo'd
// parameter in a sweep fails loudly instead of silently running the
// default. to_json() emits every field explicitly; from_json(to_json(c))
// reproduces c bitwise.

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/json_fields.hpp"
#include "ndp/ndp_system.hpp"

// ---- field lists, in emission order. Each sits in its type's namespace,
// where argument-dependent lookup finds it.

namespace ndft::noc {

template <class Io>
void fields(Io& io, MeshConfig& mesh) {
  io("width", mesh.width);
  io("height", mesh.height);
  io("link_gbps", mesh.link_gbps);
  io("hop_latency_ps", mesh.hop_latency_ps);
  io("packet_overhead", mesh.packet_overhead);
  io("link_pj_per_bit", mesh.link_pj_per_bit);
  io("link_queue", mesh.link_queue);
}

}  // namespace ndft::noc

namespace ndft::cpu {

template <class Io>
void fields(Io& io, CoreConfig& core) {
  io("freq_mhz", core.freq_mhz);
  io("issue_width", core.issue_width);
  io("flops_per_cycle", core.flops_per_cycle);
  io("max_outstanding", core.max_outstanding);
}

}  // namespace ndft::cpu

namespace ndft::cache {

template <class Io>
void fields(Io& io, CacheConfig& cache) {
  io("size_bytes", cache.size_bytes);
  io("ways", cache.ways);
  io("line_bytes", cache.line_bytes);
  io("hit_latency_ps", cache.hit_latency_ps);
  io("mshrs", cache.mshrs);
  io("prefetch", cache.prefetch);
  io("prefetch_degree", cache.prefetch_degree);
}

}  // namespace ndft::cache

namespace ndft::mem {

// A "preset" rebases the whole section before its explicit members
// override individual values; it is never written.

template <class Io>
void fields(Io& io, DramTiming& timing) {
  static constexpr std::pair<const char*, DramTiming (*)()> kPresets[] = {
      {"ddr4_2400", &DramTiming::ddr4_2400},
      {"hbm2_1000", &DramTiming::hbm2_1000},
  };
  io.rebase("preset", timing, kPresets);
  io("tCK_ps", timing.tCK_ps);
  io("CL", timing.CL);
  io("CWL", timing.CWL);
  io("tRCD", timing.tRCD);
  io("tRP", timing.tRP);
  io("tRAS", timing.tRAS);
  io("tRC", timing.tRC);
  io("tCCD", timing.tCCD);
  io("tRRD", timing.tRRD);
  io("tFAW", timing.tFAW);
  io("tWR", timing.tWR);
  io("tWTR", timing.tWTR);
  io("tRTP", timing.tRTP);
  io("tREFI", timing.tREFI);
  io("tRFC", timing.tRFC);
  io("burst_length", timing.burst_length);
  io("bus_width_bits", timing.bus_width_bits);
}

template <class Io>
void fields(Io& io, DramGeometry& geometry) {
  static constexpr std::pair<const char*, DramGeometry (*)()> kPresets[] = {
      {"ddr4_16gb_channel", &DramGeometry::ddr4_16gb_channel},
      {"hbm2_512mb_channel", &DramGeometry::hbm2_512mb_channel},
  };
  io.rebase("preset", geometry, kPresets);
  io("banks", geometry.banks);
  io("rows", geometry.rows);
  io("row_bytes", geometry.row_bytes);
}

template <class Io>
void fields(Io& io, DramConfig& dram) {
  io("timing", dram.timing);
  io("geometry", dram.geometry);
  io("channels", dram.channels);
  io("line_bytes", dram.line_bytes);
  io("page_policy", dram.page_policy);
  io("access_latency_ps", dram.access_latency_ps);
  io("queue_depth", dram.queue_depth);
}

}  // namespace ndft::mem

namespace ndft::ndp {

template <class Io>
void fields(Io& io, SpmConfig& spm) {
  io("capacity", spm.capacity);
  io("access_latency_ps", spm.access_latency_ps);
  io("bandwidth_gbps", spm.bandwidth_gbps);
  io("port_queue", spm.port_queue);
}

template <class Io>
void fields(Io& io, NdpStackConfig& stack) {
  io("units", stack.units);
  io("cores_per_unit", stack.cores_per_unit);
  io("core", stack.core);
  io("l1", stack.l1);
  io("dram", stack.dram);
  io("spm", stack.spm);
}

template <class Io>
void fields(Io& io, NdpSystemConfig& config) {
  io.schema("ndft.machine.v1", JsonAuthor::kPeople);
  io("mesh", config.mesh);
  io("stack", config.stack);
  io("cpu_links", config.cpu_links);
  io("cpu_link_gbps", config.cpu_link_gbps);
  io("serdes_latency_ps", config.serdes_latency_ps);
  io("request_bytes", config.request_bytes);
  io("response_overhead", config.response_overhead);
  io("cpu_link_queue", config.cpu_link_queue);
}

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw NdftError("machine config: " + what);
}

/// Rates must be finite and positive (null reads as NaN).
void require_rate(double value, const char* name) {
  if (!(value > 0.0) || std::isinf(value)) {
    bad(std::string(name) + " must be finite and positive");
  }
}

/// The simulator's preconditions beyond the schema: positive sizes,
/// rates and queues, and consistent cache/DRAM geometry.
void check(const NdpSystemConfig& config) {
  const noc::MeshConfig& mesh = config.mesh;
  if (mesh.width == 0 || mesh.height == 0) bad("mesh must have nodes");
  require_rate(mesh.link_gbps, "mesh.link_gbps");
  if (!std::isfinite(mesh.link_pj_per_bit)) {
    bad("mesh.link_pj_per_bit must be finite");
  }
  if (mesh.link_queue == 0) bad("mesh.link_queue must be positive");

  const NdpStackConfig& stack = config.stack;
  if (stack.units == 0 || stack.cores_per_unit == 0) {
    bad("stack must have at least one core");
  }
  if (stack.core.freq_mhz == 0) bad("core.freq_mhz must be positive");
  require_rate(stack.core.flops_per_cycle, "core.flops_per_cycle");
  if (stack.core.max_outstanding == 0) {
    bad("core.max_outstanding must be positive");
  }
  const cache::CacheConfig& l1 = stack.l1;
  if (l1.ways == 0 || l1.line_bytes == 0 ||
      l1.size_bytes < l1.line_bytes * l1.ways) {
    bad("l1 geometry is inconsistent");
  }
  if (l1.mshrs == 0 || l1.mshrs > cache::kMaxMshrs) {
    bad("l1.mshrs must be in [1, " + std::to_string(cache::kMaxMshrs) + "]");
  }
  const mem::DramConfig& dram = stack.dram;
  if (dram.timing.tCK_ps == 0) bad("dram timing tCK_ps must be positive");
  if (dram.timing.burst_length == 0 || dram.timing.bus_width_bits < 8) {
    bad("dram timing burst/bus geometry is inconsistent");
  }
  if (dram.geometry.banks == 0 || dram.geometry.rows == 0 ||
      dram.geometry.row_bytes == 0) {
    bad("dram geometry must be non-empty");
  }
  if (dram.channels == 0) bad("dram.channels must be positive");
  if (dram.line_bytes == 0) bad("dram.line_bytes must be positive");
  if (dram.queue_depth == 0) bad("dram.queue_depth must be positive");
  if (stack.spm.capacity == 0) bad("spm.capacity must be positive");
  require_rate(stack.spm.bandwidth_gbps, "spm.bandwidth_gbps");
  if (stack.spm.port_queue == 0) bad("spm.port_queue must be positive");

  if (config.cpu_links == 0) bad("cpu_links must be positive");
  require_rate(config.cpu_link_gbps, "cpu_link_gbps");
  if (config.cpu_link_queue == 0) bad("cpu_link_queue must be positive");
}

}  // namespace

NdpSystemConfig NdpSystemConfig::from_json(const Json& j) {
  NdpSystemConfig config = NdpSystemConfig::table3();
  fields_from_json(j, config);
  check(config);
  return config;
}

Json NdpSystemConfig::to_json() const { return fields_to_json(*this); }

}  // namespace ndft::ndp
