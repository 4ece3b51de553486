#pragma once
// One 3D-stacked memory stack with near-data compute in its logic layer.
//
// Table III: 8 NDP units per stack, 2 in-order 2 GHz cores per unit with
// 32 KiB L1, 8 HBM2 channels (4 GiB), and a 256 KiB scratchpad. NDP cores
// reach their local DRAM through a TSV hop (~2 ns) instead of the CPU's
// off-chip SerDes path — that asymmetry is the entire point of NDP.

#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cpu/core.hpp"
#include "mem/dram_system.hpp"
#include "ndp/spm.hpp"

namespace ndft::ndp {

/// Configuration of one stack.
struct NdpStackConfig {
  unsigned units = 8;
  unsigned cores_per_unit = 2;
  cpu::CoreConfig core = cpu::CoreConfig::ndp_core();
  cache::CacheConfig l1;
  mem::DramConfig dram = mem::DramConfig::hbm2_stack();
  SpmConfig spm = SpmConfig::table3();

  unsigned total_cores() const noexcept { return units * cores_per_unit; }

  /// Table III stack configuration.
  static NdpStackConfig table3();
};

/// One HBM stack: local DRAM, SPM, and the NDP cores of its logic layer.
class NdpStack {
 public:
  NdpStack(const std::string& name, sim::EventQueue& queue,
           const NdpStackConfig& config);

  unsigned core_count() const noexcept {
    return static_cast<unsigned>(cores_.size());
  }
  cpu::Core& core(unsigned i) { return *cores_.at(i); }
  mem::DramSystem& dram() noexcept { return *dram_; }
  Spm& spm() noexcept { return *spm_; }
  const NdpStackConfig& config() const noexcept { return config_; }

  /// Aggregates statistics under `prefix`.
  void collect_stats(const std::string& prefix, sim::StatSet& out) const;

 private:
  NdpStackConfig config_;
  std::unique_ptr<mem::DramSystem> dram_;
  std::unique_ptr<Spm> spm_;
  std::vector<std::unique_ptr<cache::Cache>> l1s_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
};

}  // namespace ndft::ndp
