// Unit tests for the discrete-event engine and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace ndft::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(300, [&] { order.push_back(3); });
  queue.schedule_at(100, [&] { order.push_back(1); });
  queue.schedule_at(200, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 300u);
}

TEST(EventQueueTest, SameTimestampIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, [&] {
    ++fired;
    queue.schedule_after(5, [&] { ++fired; });
  });
  queue.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.now(), 15u);
}

TEST(EventQueueTest, RejectsPastEvents) {
  EventQueue queue;
  queue.schedule_at(100, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule_at(50, [] {}), NdftError);
  EXPECT_THROW(queue.schedule_at(200, EventFn{}), NdftError);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, [&] { ++fired; });
  queue.schedule_at(100, [&] { ++fired; });
  queue.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 50u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run();
  EXPECT_EQ(fired, 2);
}

// run_until pins: now() lands exactly on the deadline (a clean clamp) —
// when events remain past it, when the queue drains early, and never
// backwards once time has passed the deadline.
TEST(EventQueueTest, RunUntilClampsExactlyToDeadlineWithEventsRemaining) {
  EventQueue queue;
  queue.schedule_at(10, [] {});
  queue.schedule_at(100, [] {});
  EXPECT_EQ(queue.run_until(50), 50u);
  EXPECT_EQ(queue.now(), 50u);  // not 10 (last event), not 100 (next event)
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesToDeadlineWhenQueueDrainsEarly) {
  EventQueue queue;
  queue.schedule_at(10, [] {});
  EXPECT_EQ(queue.run_until(75), 75u);
  EXPECT_EQ(queue.now(), 75u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, RunUntilOnEmptyQueueStillAdvancesTime) {
  EventQueue queue;
  EXPECT_EQ(queue.run_until(40), 40u);
  EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueueTest, RunUntilNeverMovesTimeBackwards) {
  EventQueue queue;
  queue.schedule_at(100, [] {});
  queue.run();
  EXPECT_EQ(queue.now(), 100u);
  EXPECT_EQ(queue.run_until(50), 100u);  // past deadline: clamp is a no-op
  EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueueTest, RunUntilRunsEventsScheduledExactlyAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(50, [&] { ++fired; });
  queue.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 50u);
}

TEST(EventQueueTest, CountsExecutedEvents) {
  EventQueue queue;
  for (int i = 0; i < 25; ++i) {
    queue.schedule_after(static_cast<TimePs>(i), [] {});
  }
  queue.run();
  EXPECT_EQ(queue.executed(), 25u);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue queue;
  TimePs inner_fired_at = 0;
  queue.schedule_at(100, [&] {
    queue.schedule_after(30, [&] { inner_fired_at = queue.now(); });
  });
  queue.run();
  EXPECT_EQ(inner_fired_at, 130u);
}

// A test-local reference scheduler: a plain list searched linearly for the
// smallest (when, seq) on every step — the order EventQueue promises.
class ReferenceQueue {
 public:
  TimePs now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return entries_.size(); }
  void schedule_at(TimePs when, std::function<void()> fn) {
    entries_.push_back(Entry{when, next_seq_++, std::move(fn)});
  }
  void schedule_after(TimePs delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  TimePs run_until(TimePs deadline) {
    while (fire_next(deadline)) {
    }
    now_ = std::max(now_, deadline);
    return now_;
  }
  TimePs run() {
    while (fire_next(std::numeric_limits<TimePs>::max())) {
    }
    return now_;
  }

 private:
  struct Entry {
    TimePs when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  bool fire_next(TimePs deadline) {
    const auto first = std::min_element(
        entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
          return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
        });
    if (first == entries_.end() || first->when > deadline) return false;
    Entry entry = std::move(*first);
    entries_.erase(first);
    now_ = entry.when;
    entry.fn();
    return true;
  }

  std::vector<Entry> entries_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// One step of a scheduling scenario: an event firing (id, time) or a
/// run_until checkpoint (id -1, now, pending).
using Step = std::tuple<int, TimePs, std::size_t>;

/// Plays a seeded scenario on `queue`: rounds of events scheduled from
/// outside, interleaved with run_until deadlines, whose callbacks schedule
/// more events (zero delays, equal timestamps, captures too large to live
/// inline). Every draw is made in firing order, so two queues that fire in
/// the same order see the same scenario.
template <typename Queue>
std::vector<Step> play(Queue& queue, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Step> steps;
  int next_id = 0;
  constexpr int kMaxEvents = 6000;
  // Delays cluster on a few values so that same-time events are common.
  const auto delay = [&rng]() -> TimePs {
    static constexpr std::array<TimePs, 6> kDelays = {0, 0, 1, 5, 5, 40};
    return kDelays[rng() % kDelays.size()] + (rng() % 4 == 0 ? rng() % 97 : 0);
  };
  std::function<void(int)> fire = [&](int id) {
    steps.emplace_back(id, queue.now(), 0);
    const int children = static_cast<int>(rng() % 3);
    for (int c = 0; c < children && next_id < kMaxEvents; ++c) {
      const int child = next_id++;
      if (rng() % 5 == 0) {
        std::array<std::uint64_t, 8> ballast{};  // 64 bytes: heap capture
        ballast[7] = static_cast<std::uint64_t>(child);
        queue.schedule_after(delay(), [&fire, ballast] {
          fire(static_cast<int>(ballast[7]));
        });
      } else {
        queue.schedule_after(delay(), [&fire, child] { fire(child); });
      }
    }
  };
  for (int round = 0; round < 40; ++round) {
    const int outside = static_cast<int>(rng() % 6);
    for (int i = 0; i < outside; ++i) {
      const int id = next_id++;
      const TimePs when = queue.now() + delay();
      queue.schedule_at(when, [&fire, id] { fire(id); });
    }
    const TimePs deadline = queue.now() + (rng() % 3 == 0 ? 0 : rng() % 60);
    steps.emplace_back(-1, queue.run_until(deadline), queue.pending());
  }
  steps.emplace_back(-1, queue.run(), queue.pending());
  return steps;
}

TEST(EventQueueTest, FiresInWhenSeqOrderLikeAReferenceScheduler) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EventQueue queue;
    ReferenceQueue reference;
    const std::vector<Step> actual = play(queue, seed);
    const std::vector<Step> expected = play(reference, seed);
    ASSERT_GT(expected.size(), 500u) << "seed " << seed;
    EXPECT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(queue.executed(),
              static_cast<std::uint64_t>(std::count_if(
                  expected.begin(), expected.end(),
                  [](const Step& step) { return std::get<0>(step) >= 0; })));
  }
}

TEST(EventQueueTest, AcceptsMoveOnlyCapturesAndReleasesThem) {
  EventQueue queue;
  const auto token = std::make_shared<int>(0);
  int seen = 0;
  queue.schedule_at(10, [&seen, value = std::make_unique<int>(42), token] {
    seen += *value;
  });
  // Too large to live inline: exercises the heap-held path.
  std::array<std::uint64_t, 8> ballast{};
  ballast[7] = 7;
  queue.schedule_at(20, [&seen, value = std::make_unique<int>(5), ballast,
                         token] {
    seen += *value + static_cast<int>(ballast[7]);
  });
  EXPECT_EQ(token.use_count(), 3);
  queue.run();
  EXPECT_EQ(seen, 54);
  EXPECT_EQ(token.use_count(), 1);  // fired callbacks are destroyed
  {
    EventQueue unfired;
    unfired.schedule_at(5, [token] {});
    unfired.schedule_at(6, [token, ballast] {});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);  // so are pending ones, with the queue
}

TEST(EventQueueTest, ThrowingCallbackLeavesQueueConsistent) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(10, [&] { order.push_back(1); });
  queue.schedule_at(20, [&] {
    order.push_back(2);
    queue.schedule_after(0, [&] { order.push_back(6); });
    throw std::runtime_error("boom");
  });
  queue.schedule_at(20, [&] { order.push_back(3); });
  queue.schedule_at(30, [&] { order.push_back(4); });
  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_EQ(queue.now(), 20u);
  EXPECT_EQ(queue.executed(), 2u);
  EXPECT_EQ(queue.pending(), 3u);
  queue.schedule_at(25, [&] { order.push_back(5); });
  EXPECT_EQ(queue.pending(), 4u);
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 6, 5, 4}));
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.now(), 30u);
}

TEST(StatSetTest, AddAndGet) {
  StatSet stats;
  EXPECT_EQ(stats.get("missing"), 0.0);
  EXPECT_FALSE(stats.contains("missing"));
  stats.add("hits");
  stats.add("hits", 2.0);
  EXPECT_DOUBLE_EQ(stats.get("hits"), 3.0);
  stats.set("hits", 10.0);
  EXPECT_DOUBLE_EQ(stats.get("hits"), 10.0);
}

TEST(StatSetTest, MergePrefixed) {
  StatSet a;
  StatSet b;
  b.add("x", 5.0);
  a.merge_prefixed("child", b);
  EXPECT_DOUBLE_EQ(a.get("child.x"), 5.0);
  a.merge_prefixed("child", b);
  EXPECT_DOUBLE_EQ(a.get("child.x"), 10.0);  // merging accumulates
}

TEST(StatSetTest, RenderContainsEntries) {
  StatSet stats;
  stats.set("alpha", 1.5);
  const std::string out = stats.render();
  EXPECT_NE(out.find("alpha = 1.5"), std::string::npos);
}

TEST(HistogramTest, MeanMaxCount) {
  Histogram h(10.0, 10);
  h.record(5.0);
  h.record(15.0);
  h.record(25.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
}

TEST(HistogramTest, PercentileFromBuckets) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.record(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(90), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(100), 99.5, 1.0);
}

TEST(HistogramTest, OverflowGoesToLastBucket) {
  Histogram h(1.0, 4);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(SimObjectTest, NameAndQueueAccess) {
  EventQueue queue;
  SimObject object("top.child", queue);
  EXPECT_EQ(object.name(), "top.child");
  EXPECT_EQ(object.now(), 0u);
  object.stats().add("events");
  EXPECT_DOUBLE_EQ(object.stats().get("events"), 1.0);
}

}  // namespace
}  // namespace ndft::sim
