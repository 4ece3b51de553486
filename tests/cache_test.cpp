// Unit tests for the cache model: hits/misses, LRU, write-back and
// write-validate paths, MSHR coalescing and stalls, the stride prefetcher
// and its stream table, and flush semantics.

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hpp"
#include "mem/mem_request.hpp"
#include "sim/event_queue.hpp"

namespace ndft::cache {
namespace {

/// A scriptable backing memory that records requests and answers after a
/// fixed latency.
class RecordingMemory : public mem::MemoryPort {
 public:
  RecordingMemory(sim::EventQueue& queue, TimePs latency)
      : queue_(&queue), latency_(latency) {}

  void access(mem::MemRequest req) override {
    if (req.is_write) {
      writes.push_back(req.addr);
      if (req.on_complete) {
        auto cb = std::move(req.on_complete);
        queue_->schedule_after(latency_,
                               [cb = std::move(cb), this] { cb(queue_->now()); });
      }
      return;
    }
    reads.push_back(req.addr);
    auto cb = std::move(req.on_complete);
    queue_->schedule_after(latency_, [cb = std::move(cb), this] {
      if (cb) cb(queue_->now());
    });
  }

  std::vector<Addr> reads;
  std::vector<Addr> writes;

 private:
  sim::EventQueue* queue_;
  TimePs latency_;
};

struct CacheFixture : public ::testing::Test {
  CacheFixture()
      : memory(queue, 80000 /* 80 ns */), cache("l1", queue, config(), memory) {}

  static CacheConfig config() {
    CacheConfig c;
    c.size_bytes = 4096;  // 64 lines: small enough to evict in tests
    c.ways = 4;
    c.line_bytes = 64;
    c.hit_latency_ps = 1000;
    c.mshrs = 4;
    return c;
  }

  /// Issues a read and returns its completion time (runs the queue).
  TimePs read(Addr addr) {
    TimePs done = 0;
    mem::MemRequest req;
    req.addr = addr;
    req.size = 64;
    req.on_complete = [&done](TimePs at) { done = at; };
    cache.access(std::move(req));
    queue.run();
    return done;
  }

  /// Issues a full-line write and returns its completion time.
  TimePs write(Addr addr) {
    TimePs done = 0;
    mem::MemRequest req;
    req.addr = addr;
    req.size = 64;
    req.is_write = true;
    req.on_complete = [&done](TimePs at) { done = at; };
    cache.access(std::move(req));
    queue.run();
    return done;
  }

  sim::EventQueue queue;
  RecordingMemory memory;
  Cache cache;
};

TEST_F(CacheFixture, MissThenHit) {
  const TimePs miss_done = read(0);
  EXPECT_GE(miss_done, 80000u);  // paid the memory latency
  EXPECT_EQ(memory.reads.size(), 1u);
  const TimePs t_before = queue.now();
  const TimePs hit_done = read(0);
  EXPECT_EQ(hit_done - t_before, 1000u);  // hit latency only
  EXPECT_EQ(memory.reads.size(), 1u);     // no new fill
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST_F(CacheFixture, LruEvictsOldest) {
  // Fill one set: addresses that map to set 0 (16 sets): stride 16*64.
  const Addr set_stride = 16 * 64;
  for (unsigned i = 0; i < 4; ++i) {
    read(Addr(i) * set_stride);
  }
  EXPECT_EQ(memory.reads.size(), 4u);
  read(0);  // touch line 0 so line 1 is LRU
  EXPECT_EQ(memory.reads.size(), 4u);
  read(4 * set_stride);  // evicts line 1 (the LRU)
  EXPECT_EQ(memory.reads.size(), 5u);
  read(0);  // still resident
  EXPECT_EQ(memory.reads.size(), 5u);
  read(1 * set_stride);  // was evicted -> miss
  EXPECT_EQ(memory.reads.size(), 6u);
}

TEST_F(CacheFixture, FullLineWriteMissDoesNotFetch) {
  // Write-validate: no read-for-ownership for full-line stores.
  write(0);
  EXPECT_EQ(memory.reads.size(), 0u);
  EXPECT_EQ(memory.writes.size(), 0u);  // dirty, not yet written back
  // Read hits the installed line.
  const TimePs t_before = queue.now();
  EXPECT_EQ(read(0) - t_before, 1000u);
}

TEST_F(CacheFixture, DirtyEvictionWritesBack) {
  const Addr set_stride = 16 * 64;
  write(0);
  for (unsigned i = 1; i <= 4; ++i) {
    read(Addr(i) * set_stride);  // force eviction of the dirty line
  }
  ASSERT_EQ(memory.writes.size(), 1u);
  EXPECT_EQ(memory.writes[0], 0u);
  EXPECT_EQ(cache.counters().writebacks, 1u);
}

TEST_F(CacheFixture, PartialWriteMissFetchesLine) {
  mem::MemRequest req;
  req.addr = 0;
  req.size = 8;  // sub-line store needs the rest of the line
  req.is_write = true;
  cache.access(std::move(req));
  queue.run();
  EXPECT_EQ(memory.reads.size(), 1u);
}

TEST_F(CacheFixture, MshrCoalescesSameLine) {
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    mem::MemRequest req;
    req.addr = 0;
    req.size = 64;
    req.on_complete = [&completions](TimePs) { ++completions; };
    cache.access(std::move(req));
  }
  queue.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(memory.reads.size(), 1u);  // one fill serves all three
  EXPECT_EQ(cache.counters().coalesced, 2u);
}

TEST_F(CacheFixture, MshrLimitStallsAndRetries) {
  int completions = 0;
  // 6 distinct lines with only 4 MSHRs.
  for (int i = 0; i < 6; ++i) {
    mem::MemRequest req;
    req.addr = Addr(i) * 64 * 16;
    req.size = 64;
    req.on_complete = [&completions](TimePs) { ++completions; };
    cache.access(std::move(req));
  }
  EXPECT_EQ(cache.counters().mshr_stalls, 2u);
  queue.run();
  EXPECT_EQ(completions, 6);  // stalled requests eventually complete
  EXPECT_EQ(memory.reads.size(), 6u);
}

TEST_F(CacheFixture, FlushWritesBackAndEmpties) {
  write(0);
  write(64);
  cache.flush();
  queue.run();
  EXPECT_EQ(memory.writes.size(), 2u);
  EXPECT_EQ(cache.counters().flush_writebacks, 2u);
  // Everything gone: next read misses.
  read(0);
  EXPECT_EQ(memory.reads.size(), 1u);
}

TEST_F(CacheFixture, HitRatioTracksAccesses) {
  read(0);
  read(0);
  read(0);
  read(64 * 16);
  EXPECT_NEAR(cache.hit_ratio(), 0.5, 1e-9);
}

TEST(CachePrefetchTest, SequentialStreamTriggersPrefetches) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 80000);
  CacheConfig config;
  config.size_bytes = 256 * 1024;
  config.ways = 8;
  config.hit_latency_ps = 1000;
  config.mshrs = 24;
  config.prefetch = true;
  config.prefetch_degree = 4;
  Cache cache("l2", queue, config, memory);

  for (Addr line = 0; line < 64; ++line) {
    mem::MemRequest req;
    req.addr = line * 64;
    req.size = 64;
    req.on_complete = [](TimePs) {};
    cache.access(std::move(req));
    queue.run();
  }
  EXPECT_GT(cache.counters().prefetches, 20u);
  // Demands behind the prefetch front hit or coalesce.
  EXPECT_GT(cache.counters().hits + cache.counters().coalesced, 30u);
}

TEST(CachePrefetchTest, StridedStreamIsDetected) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 80000);
  CacheConfig config;
  config.size_bytes = 256 * 1024;
  config.ways = 8;
  config.hit_latency_ps = 1000;
  config.mshrs = 24;
  config.prefetch = true;
  config.prefetch_degree = 4;
  Cache cache("l2", queue, config, memory);

  // Stride of 4 lines.
  for (Addr i = 0; i < 48; ++i) {
    mem::MemRequest req;
    req.addr = i * 4 * 64;
    req.size = 64;
    req.on_complete = [](TimePs) {};
    cache.access(std::move(req));
    queue.run();
  }
  EXPECT_GT(cache.counters().prefetches, 10u);
}

TEST(CachePrefetchTest, RandomStreamDoesNotPrefetch) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 80000);
  CacheConfig config;
  config.size_bytes = 256 * 1024;
  config.ways = 8;
  config.hit_latency_ps = 1000;
  config.mshrs = 24;
  config.prefetch = true;
  Cache cache("l2", queue, config, memory);

  Addr addr = 12345;
  for (int i = 0; i < 64; ++i) {
    addr = addr * 6364136223846793005ull + 1442695040888963407ull;
    mem::MemRequest req;
    req.addr = (addr % (1 << 24)) / 64 * 64;
    req.size = 64;
    req.on_complete = [](TimePs) {};
    cache.access(std::move(req));
    queue.run();
  }
  EXPECT_LT(cache.counters().prefetches, 8u);
}

TEST(CachePrefetchTest, FullStreamTableEvictsTheLeastRecentlyTrained) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 80000);
  CacheConfig config;
  config.size_bytes = 256 * 1024;
  config.ways = 8;
  config.hit_latency_ps = 1000;
  config.mshrs = 24;
  config.prefetch = true;
  config.prefetch_degree = 4;
  Cache cache("l2", queue, config, memory);
  const auto touch = [&](Addr line) {
    mem::MemRequest req;
    req.addr = line * 64;
    req.size = 64;
    req.on_complete = [](TimePs) {};
    cache.access(std::move(req));
    queue.run();
  };
  // One stream per 128 KiB region (2048 lines); four unit-stride accesses
  // confirm a stream, so each later access prefetches.
  constexpr Addr kRegion = 2048;
  const Addr a = 1 * kRegion;
  const Addr b = 2 * kRegion;
  for (Addr i = 0; i < 4; ++i) touch(a + i);
  for (Addr i = 0; i < 4; ++i) touch(b + i);
  for (Addr r = 3; r < 65; ++r) touch(r * kRegion + 5);  // 64 streams now
  touch(a + 4);         // a is the most recently trained, b the least
  touch(65 * kRegion);  // a new region takes b's slot

  std::uint64_t before = cache.counters().prefetches;
  touch(a + 5);
  EXPECT_GT(cache.counters().prefetches, before) << "a's stream was lost";
  before = cache.counters().prefetches;
  touch(b + 4);
  EXPECT_EQ(cache.counters().prefetches, before) << "b's stream survived";
}

TEST(CacheConfigTest, PresetsMatchTableIII) {
  const CacheConfig l1 = CacheConfig::l1(3000);
  EXPECT_EQ(l1.size_bytes, 32u * 1024);
  const CacheConfig l2 = CacheConfig::l2(3000);
  EXPECT_EQ(l2.size_bytes, 256u * 1024);
  const CacheConfig l3 = CacheConfig::l3(3000);
  EXPECT_EQ(l3.size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(l1.sets(), 64u);
}

TEST(CacheConfigTest, RejectsBadGeometry) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 1000);
  CacheConfig bad;
  bad.size_bytes = 1000;  // not a whole number of sets
  bad.ways = 3;
  EXPECT_THROW(Cache("bad", queue, bad, memory), NdftError);
}

TEST(CacheHierarchyTest, MissPropagatesThroughLevels) {
  sim::EventQueue queue;
  RecordingMemory memory(queue, 80000);
  Cache l2("l2", queue, CacheConfig::l2(2400), memory);
  PrivateHierarchy hierarchy("core0", queue, CacheConfig::l1(2400),
                             CacheConfig::l2(2400), l2);
  TimePs done = 0;
  mem::MemRequest req;
  req.addr = 4096;
  req.size = 64;
  req.on_complete = [&done](TimePs at) { done = at; };
  hierarchy.port().access(std::move(req));
  queue.run();
  EXPECT_GT(done, 80000u);
  EXPECT_EQ(memory.reads.size(), 1u);
  // Second access: L1 hit, no new memory traffic.
  mem::MemRequest req2;
  req2.addr = 4096;
  req2.size = 64;
  req2.on_complete = [](TimePs) {};
  hierarchy.port().access(std::move(req2));
  queue.run();
  EXPECT_EQ(memory.reads.size(), 1u);
  EXPECT_EQ(hierarchy.l1().counters().hits, 1u);
}

}  // namespace
}  // namespace ndft::cache
