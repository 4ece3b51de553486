#include "mem/dram_channel.hpp"

#include <algorithm>

namespace ndft::mem {

sim::LinkConfig DramChannel::ingress_link(std::size_t queue_depth) {
  // An untimed (inline-delivering) wire: the bound is the controller
  // queue, not a physical link, so the connection adds no latency. The
  // credit returns explicitly when a request's data transfer retires.
  sim::LinkConfig link;
  link.latency_ps = 0;
  link.gbps = 0.0;
  link.capacity = queue_depth;
  link.manual_credit = true;
  return link;
}

DramChannel::DramChannel(std::string name, sim::EventQueue& queue,
                         const DramTiming& timing,
                         const DramGeometry& geometry, const AddressMap& map,
                         PagePolicy policy, std::size_t queue_depth)
    : SimObject(std::move(name), queue),
      timing_(timing),
      geometry_(geometry),
      policy_(policy),
      map_(&map),
      ingress_(queue, ingress_link(queue_depth), &stats()),
      banks_(geometry.banks),
      next_refresh_(cycles(timing.tREFI)) {
  ingress_.on_receive([this] {
    while (!ingress_.empty()) {
      ChannelRequest request = ingress_.pop();  // credit held until retire
      enqueue_pending(Pending{std::move(request.req), request.coord, now(),
                              /*credited=*/true});
    }
  });
}

void DramChannel::enqueue(MemRequest req, const DramCoord& coord) {
  enqueue_pending(Pending{std::move(req), coord, now(), /*credited=*/false});
}

void DramChannel::enqueue_pending(Pending pending) {
  NDFT_ASSERT(pending.coord.bank < banks_.size());
  if (pending.req.is_write) {
    ++counters_.writes;
  } else {
    ++counters_.reads;
  }
  queue_.push_back(std::move(pending));
  ++queue_depth_;
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    // Same-timestamp drain runs after all enqueues issued at this instant,
    // giving FR-FCFS a reordering window over the whole burst of misses.
    queue().schedule_after(0, [this] {
      drain_scheduled_ = false;
      drain();
    });
  }
}

TimePs DramChannel::apply_refresh(TimePs t) {
  // All-bank refresh: the channel is unavailable for tRFC every tREFI.
  while (t >= next_refresh_) {
    ++counters_.refreshes;
    const TimePs refresh_end = next_refresh_ + cycles(timing_.tRFC);
    if (t < refresh_end) {
      t = refresh_end;
      counters_.refresh_stall_ps +=
          static_cast<double>(refresh_end - next_refresh_);
    }
    next_refresh_ += cycles(timing_.tREFI);
  }
  return t;
}

std::size_t DramChannel::pick_next() const {
  // FR-FCFS: among queued requests, prefer the oldest row hit; if no row
  // hits exist, take the oldest request. The scan is capped at a
  // realistic controller window.
  constexpr std::size_t kScanWindow = 64;
  const std::size_t window = std::min(queue_.size(), kScanWindow);
  std::size_t best = 0;
  bool best_hit = false;
  for (std::size_t i = 0; i < window; ++i) {
    const auto& pending = queue_[i];
    const BankState& bank = banks_[pending.coord.bank];
    const bool hit = bank.row_open && bank.open_row == pending.coord.row;
    if (hit && !best_hit) {
      best = i;
      best_hit = true;
    }
  }
  return best_hit ? best : 0;
}

void DramChannel::drain() {
  while (!queue_.empty()) {
    const std::size_t index = pick_next();
    Pending pending = std::move(queue_[index]);
    queue_.erase(index);

    BankState& bank = banks_[pending.coord.bank];
    const bool row_hit = bank.row_open && bank.open_row == pending.coord.row;
    const bool row_closed = !bank.row_open;

    // Earliest moment the column command could start on this bank.
    TimePs t = std::max(now(), bank.ready_at);
    t = apply_refresh(t);

    if (!row_hit) {
      if (!row_closed) {
        // Row conflict: precharge first (respecting tRAS), then activate.
        t = std::max(t, bank.precharge_ok);
        t += cycles(timing_.tRP);
        ++counters_.row_conflicts;
      } else {
        ++counters_.row_misses;
      }
      // Activate throttling: tRRD between ACTs, at most 4 in tFAW.
      if (!recent_acts_.empty()) {
        t = std::max(t, recent_acts_.back() + cycles(timing_.tRRD));
      }
      if (recent_acts_.size() >= 4) {
        t = std::max(t, recent_acts_[recent_acts_.size() - 4] +
                            cycles(timing_.tFAW));
      }
      recent_acts_.push_back(t);
      while (recent_acts_.size() > 8) recent_acts_.pop_front();
      bank.row_open = true;
      bank.open_row = pending.coord.row;
      bank.precharge_ok = t + cycles(timing_.tRAS);
      t += cycles(timing_.tRCD);
    } else {
      ++counters_.row_hits;
    }

    // Column access: data burst occupies the shared bus.
    const unsigned cas = pending.req.is_write ? timing_.CWL : timing_.CL;
    TimePs data_start = std::max(t + cycles(cas), bus_free_at_);
    if (!pending.req.is_write && last_write_end_ != 0) {
      data_start = std::max(data_start,
                            last_write_end_ + cycles(timing_.tWTR));
    }
    const TimePs data_end = data_start + timing_.burst_time_ps();
    bus_free_at_ = data_end;
    if (pending.req.is_write) {
      last_write_end_ = data_end;
      bank.ready_at = std::max(bank.ready_at, data_end + cycles(timing_.tWR));
      bank.precharge_ok =
          std::max(bank.precharge_ok, data_end + cycles(timing_.tWR));
    } else {
      bank.ready_at = std::max(bank.ready_at, t + cycles(timing_.tCCD));
      bank.precharge_ok =
          std::max(bank.precharge_ok, t + cycles(timing_.tRTP));
    }

    if (policy_ == PagePolicy::kClosed) {
      // Auto-precharge: the row closes after the access; the bank is
      // ready for a fresh ACT once tRAS and tRP have elapsed.
      bank.row_open = false;
      bank.ready_at =
          std::max(bank.ready_at, bank.precharge_ok + cycles(timing_.tRP));
    }

    bytes_ += pending.req.size;
    counters_.latency_ps_total +=
        static_cast<double>(data_end - pending.arrival);

    --queue_depth_;
    if (pending.req.on_complete || pending.credited) {
      // One retire event: free the controller slot (waking any staged
      // producer) and deliver the data to the requester. data_end grows
      // with every transfer on the shared bus, so retire events fire in
      // the order they are scheduled and each takes the head of
      // retiring_.
      retiring_.push_back(
          Retire{std::move(pending.req.on_complete), pending.credited});
      queue().schedule_at(data_end, [this](TimePs at) {
        Retire retire = std::move(retiring_.front());
        retiring_.pop_front();
        if (retire.credited) ingress_.return_credit();
        if (retire.callback) retire.callback(at);
      });
    }
  }
}

double DramChannel::energy_nj(const DramEnergy& energy) const {
  const double acts = static_cast<double>(counters_.row_misses +
                                          counters_.row_conflicts);
  return channel_energy_nj(energy, acts,
                           static_cast<double>(counters_.reads),
                           static_cast<double>(counters_.writes),
                           static_cast<double>(counters_.refreshes), now());
}

double DramChannel::dynamic_energy_nj(const DramEnergy& energy) const {
  // Command energy only: refresh is a time-based cost (the counter
  // fast-forwards across idle gaps), so callers fold it into the
  // background power via background_with_refresh_mw().
  const double acts = static_cast<double>(counters_.row_misses +
                                          counters_.row_conflicts);
  return channel_energy_nj(energy, acts,
                           static_cast<double>(counters_.reads),
                           static_cast<double>(counters_.writes), 0.0, 0);
}

void DramChannel::publish_stats() {
  stats().set("reads", static_cast<double>(counters_.reads));
  stats().set("writes", static_cast<double>(counters_.writes));
  stats().set("row_hits", static_cast<double>(counters_.row_hits));
  stats().set("row_misses", static_cast<double>(counters_.row_misses));
  stats().set("row_conflicts",
              static_cast<double>(counters_.row_conflicts));
  stats().set("refresh_stall_ps", counters_.refresh_stall_ps);
  stats().set("refreshes", static_cast<double>(counters_.refreshes));
  stats().set("latency_ps_total", counters_.latency_ps_total);
  stats().set("bytes", static_cast<double>(bytes_));
}

}  // namespace ndft::mem
