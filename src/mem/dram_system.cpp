#include "mem/dram_system.hpp"

#include "common/str_util.hpp"
#include "common/units.hpp"

namespace ndft::mem {

DramConfig DramConfig::xeon_ddr4() {
  DramConfig c{};
  c.timing = DramTiming::ddr4_2400();
  c.geometry = DramGeometry::ddr4_16gb_channel();
  c.channels = 4;
  c.line_bytes = 64;
  c.access_latency_ps = 50 * kPsPerNs;  // uncore + board traversal
  return c;
}

DramConfig DramConfig::hbm2_stack() {
  DramConfig c{};
  c.timing = DramTiming::hbm2_1000();
  c.geometry = DramGeometry::hbm2_512mb_channel();
  c.channels = 8;
  c.line_bytes = 64;
  c.access_latency_ps = 2 * kPsPerNs;  // TSV hop inside the stack
  return c;
}

DramSystem::DramSystem(std::string name, sim::EventQueue& queue,
                       const DramConfig& config)
    : SimObject(std::move(name), queue),
      config_(config),
      map_(config.channels, config.geometry, config.line_bytes) {
  channels_.reserve(config.channels);
  ports_.reserve(config.channels);
  senders_.reserve(config.channels);
  for (unsigned i = 0; i < config.channels; ++i) {
    channels_.push_back(std::make_unique<DramChannel>(
        this->name() + ".ch" + std::to_string(i), queue, config.timing,
        config.geometry, map_, config.page_policy, config.queue_depth));
    ports_.push_back(std::make_unique<sim::OutputPort<ChannelRequest>>());
    ports_.back()->bind(channels_.back()->ingress());
    senders_.push_back(std::make_unique<sim::CreditedSender<ChannelRequest>>(
        queue, *ports_.back(), &channels_.back()->stats()));
  }
}

void DramSystem::access(MemRequest req) {
  const DramCoord coord = map_.decode(req.addr);
  NDFT_ASSERT(coord.channel < channels_.size());
  if (config_.access_latency_ps == 0) {
    const Bytes size = req.size;
    senders_[coord.channel]->push(ChannelRequest{std::move(req), coord},
                                  size);
    return;
  }
  // Interconnect hop between the requester and the controller. Every
  // request pays the same latency, so hops land in the order they were
  // scheduled and each event takes the head of in_hop_.
  in_hop_.push_back(ChannelRequest{std::move(req), coord});
  queue().schedule_after(config_.access_latency_ps, [this] {
    ChannelRequest request = std::move(in_hop_.front());
    in_hop_.pop_front();
    const Bytes size = request.req.size;
    senders_[request.coord.channel]->push(std::move(request), size);
  });
}

Bytes DramSystem::bytes_transferred() const noexcept {
  Bytes total = 0;
  for (const auto& channel : channels_) {
    total += channel->bytes_transferred();
  }
  return total;
}

double DramSystem::energy_nj(const DramEnergy& energy) const {
  double total = 0.0;
  for (const auto& channel : channels_) {
    total += channel->energy_nj(energy);
  }
  return total;
}

double DramSystem::dynamic_energy_nj(const DramEnergy& energy) const {
  double total = 0.0;
  for (const auto& channel : channels_) {
    total += channel->dynamic_energy_nj(energy);
  }
  return total;
}

void DramSystem::collect_stats(const std::string& prefix,
                               sim::StatSet& out) const {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->publish_stats();
    out.merge_prefixed(prefix + ".ch" + std::to_string(i),
                       channels_[i]->stats());
  }
}

}  // namespace ndft::mem
