#pragma once
// A multi-channel DRAM system: routes line requests to per-channel
// controllers through the address map. This is the MemoryPort that cache
// hierarchies and NDP cores sit on top of.

#include <memory>
#include <string>
#include <vector>

#include "mem/address_map.hpp"
#include "mem/dram_channel.hpp"
#include "mem/mem_request.hpp"
#include "sim/containers.hpp"
#include "sim/sim_object.hpp"

namespace ndft::mem {

/// Configuration of a DRAM system (one memory domain).
struct DramConfig {
  DramTiming timing;
  DramGeometry geometry;
  unsigned channels = 4;
  Bytes line_bytes = 64;
  PagePolicy page_policy = PagePolicy::kOpen;
  /// Fixed latency added to every access before it reaches the controller
  /// (models the on-/off-chip interconnect between the LLC and DRAM; the
  /// NDP cores use ~0 here, the CPU pays SerDes + board traversal).
  TimePs access_latency_ps = 0;
  /// Per-channel controller queue depth: the credit pool of the channel's
  /// ingress connection. A credit is held from acceptance until the data
  /// transfer retires, so bursts that out-run the channel stage in the
  /// DramSystem and are accounted as back-pressure stalls. The default
  /// exceeds any in-flight population today's requesters generate
  /// (transaction-level drains schedule whole bursts ahead of time), so
  /// the bound only bites when a machine config tightens it.
  std::size_t queue_depth = 4096;

  /// Peak aggregate bandwidth in decimal GB/s.
  double peak_gbps() const noexcept {
    return timing.peak_gbps() * channels;
  }

  /// DDR4 system for the Xeon-like CPU baseline (4 channels, 64 GiB).
  static DramConfig xeon_ddr4();

  /// One HBM2 stack's DRAM (8 channels, 4 GiB) for NDP-local access.
  static DramConfig hbm2_stack();
};

/// Multi-channel DRAM with a shared address map.
class DramSystem : public sim::SimObject, public MemoryPort {
 public:
  DramSystem(std::string name, sim::EventQueue& queue,
             const DramConfig& config);

  /// Routes the request to its channel; splits nothing (callers send
  /// line-granularity requests).
  void access(MemRequest req) override;

  /// Address map used by this system.
  const AddressMap& address_map() const noexcept { return map_; }

  /// Configuration echo.
  const DramConfig& config() const noexcept { return config_; }

  /// Total bytes transferred across all channels.
  Bytes bytes_transferred() const noexcept;

  /// Total energy across channels (nJ) under the given parameters.
  double energy_nj(const DramEnergy& energy) const;

  /// Dynamic (command-only) energy across channels (nJ).
  double dynamic_energy_nj(const DramEnergy& energy) const;

  /// Aggregates per-channel statistics into `out` under `prefix`.
  void collect_stats(const std::string& prefix, sim::StatSet& out) const;

 private:
  DramConfig config_;
  AddressMap map_;
  std::vector<std::unique_ptr<DramChannel>> channels_;
  // Per-channel ingress: an OutputPort on the channel's bounded
  // connection, fronted by a staging sender so access() never drops or
  // blocks — overload beyond the controller queue depth shows up as
  // backpressure_stall stats on the channel instead.
  std::vector<std::unique_ptr<sim::OutputPort<ChannelRequest>>> ports_;
  std::vector<std::unique_ptr<sim::CreditedSender<ChannelRequest>>> senders_;
  sim::Fifo<ChannelRequest> in_hop_;  // crossing access_latency_ps
};

}  // namespace ndft::mem
