#pragma once
// A multicore CPU complex: N cores, private L1+L2 per core, a shared L3,
// and a memory port behind the L3 (either an owned DRAM system for the
// standalone Xeon baseline, or the HBM memory network of the CPU-NDP
// machine). Kernels run as one trace per core with barrier completion,
// matching the OpenMP-style parallel regions of LR-TDDFT.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cpu/core.hpp"
#include "mem/dram_system.hpp"

namespace ndft::cpu {

/// Configuration of a CPU complex.
struct CpuComplexConfig {
  unsigned cores = 8;
  CoreConfig core = CoreConfig::host_core();
  cache::CacheConfig l1 = cache::CacheConfig::l1(3000);
  cache::CacheConfig l2 = cache::CacheConfig::l2(3000);
  cache::CacheConfig l3 = cache::CacheConfig::l3(3000);

  /// Aggregate peak FP throughput in GFLOP/s.
  double peak_gflops() const noexcept {
    return core.peak_gflops() * cores;
  }

  /// Table III host CPU: 8 cores, 3 GHz, 32K/256K/2M hierarchy.
  static CpuComplexConfig table3_host();
  /// Section V CPU baseline: 2x Xeon E5-2695 (24 cores total, 2.4 GHz).
  static CpuComplexConfig xeon_baseline();
};

/// The CPU complex. Construct with the memory port that sits behind the L3.
class CpuComplex {
 public:
  CpuComplex(const std::string& name, sim::EventQueue& queue,
             const CpuComplexConfig& config, mem::MemoryPort& memory);

  /// Runs one op sequence per core (sequences beyond `cores` are
  /// rejected; fewer leave the remaining cores idle). `on_done` fires when
  /// every sequence has retired. The sources must outlive the run.
  void run(std::span<OpSource* const> traces, std::function<void()> on_done);

  unsigned core_count() const noexcept {
    return static_cast<unsigned>(cores_.size());
  }
  Core& core(unsigned i) { return *cores_.at(i); }
  cache::Cache& l3() noexcept { return *l3_; }
  const CpuComplexConfig& config() const noexcept { return config_; }

  /// Aggregates cache statistics under `prefix`.
  void collect_stats(const std::string& prefix, sim::StatSet& out) const;

 private:
  CpuComplexConfig config_;
  std::unique_ptr<cache::Cache> l3_;
  std::vector<std::unique_ptr<cache::PrivateHierarchy>> private_;
  std::vector<std::unique_ptr<Core>> cores_;
  unsigned running_ = 0;
  std::function<void()> on_done_;
};

}  // namespace ndft::cpu
