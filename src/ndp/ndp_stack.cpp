#include "ndp/ndp_stack.hpp"

namespace ndft::ndp {

NdpStackConfig NdpStackConfig::table3() {
  NdpStackConfig c{};
  c.core = cpu::CoreConfig::ndp_core();
  c.l1 = cache::CacheConfig::l1(c.core.freq_mhz);
  c.l1.mshrs = 1;          // fully blocking loads: one miss at a time
  c.l1.prefetch = false;   // no streamers in the wimpy logic-layer cores
  return c;
}

NdpStack::NdpStack(const std::string& name, sim::EventQueue& queue,
                   const NdpStackConfig& config)
    : config_(config) {
  dram_ = std::make_unique<mem::DramSystem>(name + ".dram", queue,
                                            config.dram);
  spm_ = std::make_unique<Spm>(name + ".spm", queue, config.spm);
  const unsigned cores = config.total_cores();
  l1s_.reserve(cores);
  cores_.reserve(cores);
  for (unsigned i = 0; i < cores; ++i) {
    const unsigned unit = i / config.cores_per_unit;
    const std::string core_name = name + ".u" + std::to_string(unit) +
                                  ".core" + std::to_string(i);
    l1s_.push_back(std::make_unique<cache::Cache>(core_name + ".l1", queue,
                                                  config.l1, *dram_));
    cores_.push_back(std::make_unique<cpu::Core>(core_name, queue,
                                                 config.core, *l1s_.back()));
  }
}

void NdpStack::collect_stats(const std::string& prefix,
                             sim::StatSet& out) const {
  dram_->collect_stats(prefix + ".dram", out);
  out.merge_prefixed(prefix + ".spm", spm_->stats());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->publish_stats();
    l1s_[i]->publish_stats();
    out.merge_prefixed(prefix + ".core" + std::to_string(i),
                       cores_[i]->stats());
    out.merge_prefixed(prefix + ".core" + std::to_string(i) + ".l1",
                       l1s_[i]->stats());
  }
}

}  // namespace ndft::ndp
