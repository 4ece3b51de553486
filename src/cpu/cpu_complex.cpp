#include "cpu/cpu_complex.hpp"

#include "common/error.hpp"

namespace ndft::cpu {

CpuComplexConfig CpuComplexConfig::table3_host() {
  CpuComplexConfig c{};
  c.cores = 8;
  c.core = CoreConfig::host_core();
  c.l1 = cache::CacheConfig::l1(c.core.freq_mhz);
  c.l2 = cache::CacheConfig::l2(c.core.freq_mhz);
  c.l3 = cache::CacheConfig::l3(c.core.freq_mhz);
  // The host reaches HBM through ~120 ns SerDes+mesh round trips; cover
  // the bandwidth-delay product with outstanding misses.
  c.l3.mshrs = 256;
  return c;
}

CpuComplexConfig CpuComplexConfig::xeon_baseline() {
  CpuComplexConfig c{};
  c.cores = 24;  // 2 sockets x 12 cores
  c.core = CoreConfig::xeon_core();
  c.l1 = cache::CacheConfig::l1(c.core.freq_mhz);
  c.l2 = cache::CacheConfig::l2(c.core.freq_mhz);
  c.l3 = cache::CacheConfig::l3(c.core.freq_mhz);
  c.l3.size_bytes = 60 * 1024 * 1024;  // 2x 30 MiB LLC
  c.l3.ways = 20;
  // Generous uncore queueing: 24 streams need ~8 requests in flight each
  // for the memory controller to form row-hit bursts.
  c.l3.mshrs = 256;
  return c;
}

CpuComplex::CpuComplex(const std::string& name, sim::EventQueue& queue,
                       const CpuComplexConfig& config,
                       mem::MemoryPort& memory)
    : config_(config) {
  NDFT_REQUIRE(config.cores > 0, "CPU complex needs at least one core");
  l3_ = std::make_unique<cache::Cache>(name + ".l3", queue, config.l3,
                                       memory);
  private_.reserve(config.cores);
  cores_.reserve(config.cores);
  for (unsigned i = 0; i < config.cores; ++i) {
    const std::string core_name = name + ".core" + std::to_string(i);
    private_.push_back(std::make_unique<cache::PrivateHierarchy>(
        core_name, queue, config.l1, config.l2, *l3_));
    cores_.push_back(std::make_unique<Core>(core_name, queue, config.core,
                                            private_.back()->port()));
  }
}

void CpuComplex::run(std::span<OpSource* const> traces,
                     std::function<void()> on_done) {
  NDFT_REQUIRE(traces.size() <= cores_.size(),
               "more traces than cores in the complex");
  NDFT_REQUIRE(!traces.empty(), "no traces to run");
  NDFT_REQUIRE(running_ == 0, "complex is already running a kernel");
  on_done_ = std::move(on_done);
  running_ = static_cast<unsigned>(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    NDFT_ASSERT(traces[i] != nullptr);
    cores_[i]->run_trace(*traces[i], [this] {
      NDFT_ASSERT(running_ > 0);
      if (--running_ == 0 && on_done_) {
        auto done = std::move(on_done_);
        on_done_ = nullptr;
        done();
      }
    });
  }
}

void CpuComplex::collect_stats(const std::string& prefix,
                               sim::StatSet& out) const {
  l3_->publish_stats();
  out.merge_prefixed(prefix + ".l3", l3_->stats());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const std::string core_prefix = prefix + ".core" + std::to_string(i);
    cores_[i]->publish_stats();
    private_[i]->l1().publish_stats();
    private_[i]->l2().publish_stats();
    out.merge_prefixed(core_prefix, cores_[i]->stats());
    out.merge_prefixed(core_prefix + ".l1", private_[i]->l1().stats());
    out.merge_prefixed(core_prefix + ".l2", private_[i]->l2().stats());
  }
}

}  // namespace ndft::cpu
