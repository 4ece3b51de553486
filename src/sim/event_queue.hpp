#pragma once
// The discrete-event core of the NDFT timing simulator.
//
// Every hardware model (DRAM controller, NoC link, core, arbiter) schedules
// callbacks on a single global EventQueue. Events fire in strict
// (when, seq) order: by timestamp, and at equal timestamps in schedule
// order (FIFO). That order is the whole contract — it makes the simulation
// deterministic, and any queue that keeps it yields bitwise-identical
// results.
//
// The queue is a binary heap of 24-byte {when, seq, slot} keys over a slab
// of callables whose slots are reused, so scheduling and firing an event
// allocate nothing once the heap and slab have grown to the simulation's
// peak depth (callables hold their captures inline, sim/callback.hpp).
//
// A key stands for a run: events scheduled one right after another for
// the same time have consecutive seqs, so nothing else can fire between
// them, and they share one key (the slab links each to the next). Firing
// a run's head advances the key in place — it stays the heap minimum — so
// only the run, not each of its events, pays a heap push and pop.

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/callback.hpp"
#include "sim/containers.hpp"

namespace ndft::sim {

/// Callback executed when an event fires; it receives the firing time.
using EventFn = Callback;

/// A deterministic discrete-event scheduler with integer-picosecond time.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances only inside run()/run_until().
  TimePs now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now()).
  void schedule_at(TimePs when, EventFn fn);

  /// Schedules `fn` to run `delay` picoseconds from now.
  void schedule_after(TimePs delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains. Returns the time of the last event.
  TimePs run();

  /// Runs events with timestamp <= `deadline`, then clamps: now() lands
  /// exactly on `deadline` even when the queue drains early or events
  /// remain scheduled past it. Returns now() (== deadline unless the
  /// queue was already past it, in which case time does not move
  /// backwards). Pinned by sim_test RunUntil* tests.
  TimePs run_until(TimePs deadline);

  /// Number of events waiting to fire.
  std::size_t pending() const noexcept { return pending_; }

  /// Total events executed since construction (for budget checks in tests).
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Key {
    TimePs when;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // the run's next callable in slots_
  };
  struct Slot {
    EventFn fn;
    std::uint32_t next;  // following event of the same run, or kNoSlot
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  void pop_and_run();

  std::vector<Key> heap_;  // binary min-heap on (when, seq)
  Slab<Slot> slots_;
  std::uint32_t last_slot_ = kNoSlot;  // last scheduled event, while pending
  TimePs last_when_ = 0;               // its time
  std::size_t pending_ = 0;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndft::sim
