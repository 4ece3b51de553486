#pragma once
// One DRAM channel: per-bank row-buffer state machines, an FR-FCFS request
// queue, a shared data bus, FAW/RRD activate throttling and periodic
// refresh. Transaction-level: each request is scheduled analytically from
// the bank/bus state instead of replaying individual ACT/PRE commands as
// separate events, which keeps large benches fast while preserving
// row-hit/miss/conflict behaviour.
//
// The channel fronts the fabric with a bounded manual-credit ingress
// Connection: a credit is consumed when a request enters the controller
// and returned when its data transfer retires, so at most
// `queue_depth` requests are outstanding inside the controller and a
// saturating producer back-pressures (stages in the DramSystem's
// CreditedSender) instead of growing an unbounded request queue.

#include <vector>

#include "mem/address_map.hpp"
#include "mem/dram_timing.hpp"
#include "mem/energy.hpp"
#include "mem/mem_request.hpp"
#include "sim/containers.hpp"
#include "sim/port.hpp"
#include "sim/sim_object.hpp"

namespace ndft::mem {

/// Hot-path event counters; publish_stats() copies them into the StatSet.
struct DramCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  double refresh_stall_ps = 0.0;
  double latency_ps_total = 0.0;
  std::uint64_t refreshes = 0;
};

/// One request on a channel's ingress connection.
struct ChannelRequest {
  MemRequest req;
  DramCoord coord;
};

/// A single DRAM channel with FR-FCFS scheduling.
class DramChannel : public sim::SimObject {
 public:
  DramChannel(std::string name, sim::EventQueue& queue,
              const DramTiming& timing, const DramGeometry& geometry,
              const AddressMap& map, PagePolicy policy = PagePolicy::kOpen,
              std::size_t queue_depth = 4096);

  /// Enqueues one line-granularity request for this channel directly
  /// (bypassing the credited ingress — unit tests and legacy callers).
  /// The coordinate must belong to this channel.
  void enqueue(MemRequest req, const DramCoord& coord);

  /// The bounded ingress port; DramSystem sends ChannelRequests through
  /// it. Credits (== controller queue slots) return as requests retire.
  sim::Connection<ChannelRequest>& ingress() noexcept { return ingress_; }

  /// Requests waiting or in flight.
  std::size_t pending() const noexcept { return queue_depth_; }

  /// Bytes transferred so far (reads + writes).
  Bytes bytes_transferred() const noexcept { return bytes_; }

  /// Raw event counters.
  const DramCounters& counters() const noexcept { return counters_; }

  /// Copies the counters into the StatSet (call before reading stats()).
  void publish_stats();

  /// Energy consumed so far under the given parameters (nJ); the
  /// background term uses the queue's current time.
  double energy_nj(const DramEnergy& energy) const;

  /// Dynamic (command) energy only, without the background term. Use this
  /// when the caller accounts for background power over a differently
  /// scaled time base (sampled-trace execution).
  double dynamic_energy_nj(const DramEnergy& energy) const;

 private:
  struct BankState {
    bool row_open = false;
    unsigned open_row = 0;
    TimePs ready_at = 0;      ///< earliest time the next column command may start
    TimePs precharge_ok = 0;  ///< earliest time a PRE may complete (tRAS)
  };

  struct Pending {
    MemRequest req;
    DramCoord coord;
    TimePs arrival = 0;
    /// Arrived via ingress(): return the credit at retire.
    bool credited = false;
  };

  /// A scheduled transfer's completion, waiting for its retire event.
  struct Retire {
    MemCallback callback;
    bool credited = false;
  };

  static sim::LinkConfig ingress_link(std::size_t queue_depth);

  void enqueue_pending(Pending pending);

  /// Drains the queue with FR-FCFS order, analytically scheduling each
  /// request's data transfer and completion callback.
  void drain();

  /// Advances `t` past any refresh windows it collides with.
  TimePs apply_refresh(TimePs t);

  /// Picks the next request index: oldest row-hit first, then oldest.
  std::size_t pick_next() const;

  TimePs cycles(unsigned n) const noexcept { return timing_.tCK_ps * n; }

  DramTiming timing_;
  DramGeometry geometry_;
  PagePolicy policy_;
  const AddressMap* map_;
  sim::Connection<ChannelRequest> ingress_;
  std::vector<BankState> banks_;
  sim::Fifo<Pending> queue_;
  sim::Fifo<Retire> retiring_;  // in data_end order
  std::size_t queue_depth_ = 0;
  bool drain_scheduled_ = false;
  TimePs bus_free_at_ = 0;
  TimePs last_write_end_ = 0;       ///< for write-to-read turnaround
  sim::Fifo<TimePs> recent_acts_;  ///< activate timestamps for FAW
  TimePs next_refresh_ = 0;
  Bytes bytes_ = 0;
  DramCounters counters_;
};

}  // namespace ndft::mem
