#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ndft::sim {
namespace {

// Heap order: the key that fires later sinks. (when, seq) is a strict
// total order, so every heap pops the same sequence.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::schedule_at(TimePs when, EventFn fn) {
  NDFT_ASSERT_MSG(when >= now_, "cannot schedule an event in the past");
  NDFT_ASSERT(fn != nullptr);
  const std::uint32_t slot = slots_.insert(Slot{std::move(fn), kNoSlot});
  const std::uint64_t seq = next_seq_++;
  ++pending_;
  if (last_slot_ != kNoSlot && last_when_ == when) {
    // Same time as the previous schedule, which is still pending: this
    // event fires right after it (seq is one more), so it joins its run.
    slots_[last_slot_].next = slot;
  } else {
    heap_.push_back(Key{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  last_slot_ = slot;
  last_when_ = when;
}

void EventQueue::pop_and_run() {
  // Advance or pop the key and release the slot before the callback
  // runs: it may schedule events (growing slots_), and if it throws the
  // queue is already consistent.
  Key& top = heap_.front();
  const TimePs when = top.when;
  const std::uint32_t slot = top.slot;
  const std::uint32_t next = slots_[slot].next;
  if (next != kNoSlot) {
    // The run's next event has the following seq: still the minimum.
    top.slot = next;
    ++top.seq;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  if (last_slot_ == slot) last_slot_ = kNoSlot;
  EventFn fn = slots_.take(slot).fn;
  --pending_;
  now_ = when;
  ++executed_;
  fn(now_);
}

TimePs EventQueue::run() {
  while (!heap_.empty()) {
    pop_and_run();
  }
  return now_;
}

TimePs EventQueue::run_until(TimePs deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    pop_and_run();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace ndft::sim
