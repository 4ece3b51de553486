#pragma once
// The port/connection fabric of the timing simulator.
//
// Hardware components exchange typed messages through bounded, credit-based
// connections instead of capturing each other in free-form EventFn closures.
// A Connection<Msg> binds one sender to one receiver:
//
//   sender ──OutputPort──▶ [ wire: latency + serialization ] ──InputPort──▶
//           (credits)                                          (bounded queue)
//
// Flow control is credit-based: the connection carries at most `capacity`
// messages that have been sent but not yet popped by the receiver. send()
// consumes a credit; pop() (or return_credit(), in manual-credit mode)
// returns it and synchronously wakes the sender's on_credit callback, so a
// stalled producer resumes at the exact timestamp the buffer slot frees.
// A producer that must never drop messages stages them in a CreditedSender,
// which accounts the stall time — this is how back-pressure propagates
// upstream instead of queues growing without bound.
//
// Wire timing (all integer picoseconds, deterministic):
//   start   = max(now, free_at)          — the wire is busy until free_at
//   free_at = start + serialization      — transfer_time_ps(bytes, gbps)
//   arrival = start + latency_ps                    (kCutThrough — a
//             wormhole head: serialization overlaps downstream hops)
//   arrival = start + serialization + latency_ps    (kStoreForward)
// A connection with latency_ps == 0 and gbps == 0 delivers inline (no
// event), preserving the call ordering of a synchronous function call —
// used where the fabric bounds a queue without inserting wire time.
//
// Determinism: a connection schedules events only when traffic flows, never
// at construction, so simulation results are bitwise identical regardless
// of the order components are built in (pinned by fabric_test).
//
// Fault injection: the `sim.port` site (NDFT_FAULTS) models a message
// dropped on the wire and recovered by retransmission — delivery of the
// affected message is delayed by port_fault_delay_ps() and counted under
// the "fault_delays" statistic. Inline connections fall back to an event
// for the delayed delivery. The draw is per-message and deterministic.

#include <cstdint>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/containers.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace ndft::sim {

/// Retransmission penalty applied when the `sim.port` fault site fires for
/// a message on a connection with the given wire latency (port.cpp).
TimePs port_fault_delay_ps(TimePs latency_ps) noexcept;

/// True when the `sim.port` fault site fires for the next message
/// (one deterministic draw; a plain wrapper so the template stays slim).
bool port_fault_fires() noexcept;

/// When the receiver observes a message relative to its wire occupancy.
enum class Delivery {
  kCutThrough,    ///< arrival = start + latency (wormhole head)
  kStoreForward,  ///< arrival = start + serialization + latency
};

/// Static parameters of one connection.
struct LinkConfig {
  TimePs latency_ps = 0;    ///< propagation/pipeline latency
  double gbps = 0.0;        ///< serialization bandwidth; 0 = untimed wire
  std::size_t capacity = 4; ///< receiver buffer depth (credits)
  Delivery delivery = Delivery::kCutThrough;
  /// Credits return on pop() (default) or only on an explicit
  /// return_credit() — for receivers whose internal pipeline is the
  /// resource being bounded (e.g. a DRAM controller's request queue).
  bool manual_credit = false;
};

/// A bounded, credit-flow-controlled, typed message channel.
template <typename Msg>
class Connection {
 public:
  /// `stats` receives this connection's counters ("contention_ps",
  /// "fault_delays", "queue_peak"); several connections may share one
  /// StatSet (e.g. all links of a mesh aggregate into the mesh's).
  Connection(EventQueue& queue, const LinkConfig& config, StatSet* stats)
      : queue_(&queue), config_(config), stats_(stats) {
    NDFT_REQUIRE(config.capacity > 0,
                 "connection capacity must be at least one message");
    credits_ = config.capacity;
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- sender side (OutputPort view).

  /// True when a credit is available: send() may be called.
  bool can_send() const noexcept { return credits_ > 0; }

  /// Earliest time the wire is idle (reservation horizon).
  TimePs wire_free_at() const noexcept { return free_at_; }

  /// Sends one message occupying `wire_bytes` on the wire. Requires
  /// can_send(). Returns the arrival time at the receiver.
  TimePs send(Msg msg, Bytes wire_bytes) {
    NDFT_REQUIRE(credits_ > 0, "send() without a credit (use CreditedSender)");
    --credits_;
    const TimePs now = queue_->now();
    const TimePs serialization =
        config_.gbps > 0.0 ? transfer_time_ps(wire_bytes, config_.gbps) : 0;
    const TimePs start = std::max(now, free_at_);
    if (start > now && stats_ != nullptr) {
      stats_->add("contention_ps", static_cast<double>(start - now));
    }
    free_at_ = start + serialization;
    TimePs arrival = config_.delivery == Delivery::kCutThrough
                         ? start + config_.latency_ps
                         : start + serialization + config_.latency_ps;
    bool faulted = false;
    if (port_fault_fires()) {
      arrival += port_fault_delay_ps(config_.latency_ps);
      faulted = true;
      if (stats_ != nullptr) stats_->add("fault_delays");
    }
    if (arrival == now && !faulted && config_.latency_ps == 0 &&
        config_.gbps == 0.0) {
      // Untimed wire: deliver inline, preserving synchronous call order.
      deliver(std::move(msg));
      return arrival;
    }
    // The message waits in the wire slab; the event carries its slot, so
    // scheduling it allocates nothing whatever Msg holds.
    queue_->schedule_at(arrival, [this, slot = wire_.insert(std::move(msg))] {
      deliver(wire_.take(slot));
    });
    return arrival;
  }

  /// Callback invoked (synchronously, inside pop()/return_credit()) when a
  /// credit returns. At most one; typically the owning component's pump.
  void on_credit(std::function<void()> fn) { on_credit_ = std::move(fn); }

  // ---- receiver side (InputPort view).

  /// Callback invoked when a message lands in the queue.
  void on_receive(std::function<void()> fn) { on_receive_ = std::move(fn); }

  bool empty() const noexcept { return queue_msgs_.empty(); }
  std::size_t queued() const noexcept { return queue_msgs_.size(); }
  const Msg& front() const { return queue_msgs_.front(); }
  Msg& front() { return queue_msgs_.front(); }

  /// Removes the head message. Returns the credit to the sender unless the
  /// connection is manual-credit.
  Msg pop() {
    NDFT_REQUIRE(!queue_msgs_.empty(), "pop() on an empty connection");
    Msg msg = std::move(queue_msgs_.front());
    queue_msgs_.pop_front();
    if (!config_.manual_credit) {
      give_credit();
    }
    return msg;
  }

  /// Returns one credit explicitly (manual-credit connections).
  void return_credit() {
    NDFT_REQUIRE(config_.manual_credit,
                 "return_credit() on an auto-credit connection");
    give_credit();
  }

  const LinkConfig& config() const noexcept { return config_; }
  std::size_t credits() const noexcept { return credits_; }

 private:
  void deliver(Msg msg) {
    queue_msgs_.push_back(std::move(msg));
    if (stats_ != nullptr &&
        static_cast<double>(queue_msgs_.size()) > stats_->get("queue_peak")) {
      stats_->set("queue_peak", static_cast<double>(queue_msgs_.size()));
    }
    if (on_receive_) on_receive_();
  }

  void give_credit() {
    NDFT_ASSERT(credits_ < config_.capacity);
    ++credits_;
    if (on_credit_) on_credit_();
  }

  EventQueue* queue_;
  LinkConfig config_;
  StatSet* stats_;
  std::size_t credits_ = 0;
  TimePs free_at_ = 0;
  Fifo<Msg> queue_msgs_;
  Slab<Msg> wire_;  // messages on the wire
  std::function<void()> on_receive_;
  std::function<void()> on_credit_;
};

/// The sender's named handle on a connection. Components own OutputPorts;
/// the wiring layer binds them (no hidden coupling to the peer component).
template <typename Msg>
class OutputPort {
 public:
  OutputPort() = default;
  explicit OutputPort(Connection<Msg>& connection)
      : connection_(&connection) {}
  void bind(Connection<Msg>& connection) { connection_ = &connection; }
  bool bound() const noexcept { return connection_ != nullptr; }
  bool can_send() const { return connection_->can_send(); }
  TimePs wire_free_at() const { return connection_->wire_free_at(); }
  TimePs send(Msg msg, Bytes wire_bytes) {
    return connection_->send(std::move(msg), wire_bytes);
  }
  void on_credit(std::function<void()> fn) {
    connection_->on_credit(std::move(fn));
  }
  Connection<Msg>& connection() { return *connection_; }

 private:
  Connection<Msg>* connection_ = nullptr;
};

/// The receiver's named handle on a connection.
template <typename Msg>
class InputPort {
 public:
  InputPort() = default;
  explicit InputPort(Connection<Msg>& connection)
      : connection_(&connection) {}
  void bind(Connection<Msg>& connection) { connection_ = &connection; }
  bool bound() const noexcept { return connection_ != nullptr; }
  void on_receive(std::function<void()> fn) {
    connection_->on_receive(std::move(fn));
  }
  bool empty() const { return connection_->empty(); }
  std::size_t queued() const { return connection_->queued(); }
  Msg& front() { return connection_->front(); }
  Msg pop() { return connection_->pop(); }
  void return_credit() { connection_->return_credit(); }

 private:
  Connection<Msg>* connection_ = nullptr;
};

/// Unbounded staging FIFO in front of an OutputPort for producers that are
/// structurally fire-and-forget (their offered load is bounded elsewhere —
/// a core's MLP window, one alltoall burst). When the connection is out of
/// credits the message waits here and the wait is accounted as
/// "backpressure_stall_ps" / "backpressure_stalls"; "staged_peak" records
/// the high-water mark so tests can pin that network buffers stay bounded
/// while the (observable) staging absorbs the burst.
template <typename Msg>
class CreditedSender {
 public:
  CreditedSender(EventQueue& queue, OutputPort<Msg>& port, StatSet* stats)
      : queue_(&queue), port_(&port), stats_(stats) {
    port_->on_credit([this] { drain(); });
  }
  CreditedSender(const CreditedSender&) = delete;
  CreditedSender& operator=(const CreditedSender&) = delete;

  /// Sends now when a credit is available (and nothing is already staged,
  /// preserving FIFO), otherwise stages the message.
  void push(Msg msg, Bytes wire_bytes) {
    if (staged_.empty() && port_->can_send()) {
      port_->send(std::move(msg), wire_bytes);
      return;
    }
    staged_.push_back(Staged{std::move(msg), wire_bytes, queue_->now()});
    if (stats_ != nullptr) {
      stats_->add("backpressure_stalls");
      if (static_cast<double>(staged_.size()) > stats_->get("staged_peak")) {
        stats_->set("staged_peak", static_cast<double>(staged_.size()));
      }
    }
  }

  std::size_t staged() const noexcept { return staged_.size(); }

 private:
  struct Staged {
    Msg msg;
    Bytes wire_bytes = 0;
    TimePs since = 0;
  };

  void drain() {
    while (!staged_.empty() && port_->can_send()) {
      Staged entry = std::move(staged_.front());
      staged_.pop_front();
      if (stats_ != nullptr) {
        stats_->add("backpressure_stall_ps",
                    static_cast<double>(queue_->now() - entry.since));
      }
      port_->send(std::move(entry.msg), entry.wire_bytes);
    }
  }

  EventQueue* queue_;
  OutputPort<Msg>* port_;
  StatSet* stats_;
  Fifo<Staged> staged_;
};

}  // namespace ndft::sim
