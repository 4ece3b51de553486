// Unit tests for the NDP hardware: SPM allocator and timing, stack
// construction, the CPU port's SerDes+mesh+DRAM round trip, and kernel
// execution across stacks.

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "ndp/ndp_system.hpp"
#include "sim/event_queue.hpp"

namespace ndft::ndp {
namespace {

TEST(SpmTest, AllocateAlignsAndTracksUsage) {
  sim::EventQueue queue;
  Spm spm("spm", queue, SpmConfig::table3());
  const auto block = spm.alloc(100);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(spm.used(), 128u);  // 64 B aligned
  spm.free(*block);
  EXPECT_EQ(spm.used(), 0u);
}

TEST(SpmTest, ExhaustionReturnsNullopt) {
  sim::EventQueue queue;
  SpmConfig config;
  config.capacity = 1024;
  Spm spm("spm", queue, config);
  EXPECT_TRUE(spm.alloc(512).has_value());
  EXPECT_TRUE(spm.alloc(512).has_value());
  EXPECT_FALSE(spm.alloc(64).has_value());
}

TEST(SpmTest, FreeMergesNeighbours) {
  sim::EventQueue queue;
  SpmConfig config;
  config.capacity = 1024;
  Spm spm("spm", queue, config);
  const auto a = spm.alloc(256);
  const auto b = spm.alloc(256);
  const auto c = spm.alloc(512);
  ASSERT_TRUE(a && b && c);
  spm.free(*a);
  spm.free(*b);  // merges with a
  // A 512-byte block must fit in the merged front region.
  const auto d = spm.alloc(512);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 0u);
}

TEST(SpmTest, DoubleFreeRejected) {
  sim::EventQueue queue;
  Spm spm("spm", queue, SpmConfig::table3());
  const auto block = spm.alloc(64);
  spm.free(*block);
  EXPECT_THROW(spm.free(*block), NdftError);
}

TEST(SpmTest, AccessLatencyAndSerialization) {
  sim::EventQueue queue;
  SpmConfig config = SpmConfig::table3();
  Spm spm("spm", queue, config);
  TimePs small_done = 0;
  spm.read(64, [&](TimePs at) { small_done = at; });
  queue.run();
  EXPECT_EQ(small_done, config.access_latency_ps +
                            transfer_time_ps(64, config.bandwidth_gbps));
  // Bulk read takes proportionally longer.
  TimePs big_done = 0;
  const TimePs start = queue.now();
  spm.write(1 << 16, [&](TimePs at) { big_done = at; });
  queue.run();
  EXPECT_GT(big_done - start,
            transfer_time_ps(1 << 16, config.bandwidth_gbps) - 1);
}

TEST(SpmTest, PortContentionSerialisesAccesses) {
  sim::EventQueue queue;
  SpmConfig config = SpmConfig::table3();
  Spm spm("spm", queue, config);
  TimePs first = 0;
  TimePs second = 0;
  spm.read(1 << 14, [&](TimePs at) { first = at; });
  spm.read(1 << 14, [&](TimePs at) { second = at; });
  queue.run();
  EXPECT_GE(second - first,
            transfer_time_ps(1 << 14, config.bandwidth_gbps) - 1);
}

TEST(NdpStackTest, Table3Configuration) {
  const NdpStackConfig config = NdpStackConfig::table3();
  EXPECT_EQ(config.units, 8u);
  EXPECT_EQ(config.cores_per_unit, 2u);
  EXPECT_EQ(config.total_cores(), 16u);
  EXPECT_EQ(config.spm.capacity, 256u * 1024);
  sim::EventQueue queue;
  NdpStack stack("s", queue, config);
  EXPECT_EQ(stack.core_count(), 16u);
}

TEST(NdpSystemTest, Table3SystemShape) {
  const NdpSystemConfig config = NdpSystemConfig::table3();
  EXPECT_EQ(config.stacks(), 16u);
  EXPECT_EQ(config.total_cores(), 256u);
  EXPECT_EQ(config.total_capacity(), 64ull << 30);
}

TEST(NdpSystemTest, CpuPortReadRoundTrip) {
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  TimePs done = 0;
  mem::MemRequest req;
  req.addr = 12345 * 64;
  req.size = 64;
  req.on_complete = [&done](TimePs at) { done = at; };
  ndp.cpu_port().access(std::move(req));
  queue.run();
  // SerDes both ways + mesh both ways + DRAM: roughly 60-250 ns.
  EXPECT_GT(done, 50 * kPsPerNs);
  EXPECT_LT(done, 400 * kPsPerNs);
}

TEST(NdpSystemTest, CpuPortWriteIsPosted) {
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  TimePs write_done = 0;
  mem::MemRequest write;
  write.addr = 64;
  write.size = 64;
  write.is_write = true;
  write.on_complete = [&write_done](TimePs at) { write_done = at; };
  ndp.cpu_port().access(std::move(write));
  queue.run();
  TimePs read_done = 0;
  mem::MemRequest read;
  read.addr = 64;
  read.size = 64;
  read.on_complete = [&read_done](TimePs at) { read_done = at; };
  const TimePs start = queue.now();
  ndp.cpu_port().access(std::move(read));
  queue.run();
  // A posted write completes faster than a full read round trip.
  EXPECT_LT(write_done, read_done - start);
}

TEST(NdpSystemTest, StackInterleavingCoversAllStacks) {
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  // Consecutive lines map round-robin across the 16 stacks.
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(ndp.stack_of_core(i), i % 16);
  }
}

TEST(NdpSystemTest, RunsTracesAcrossStacks) {
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  std::vector<cpu::Trace> traces(32);
  for (unsigned t = 0; t < traces.size(); ++t) {
    for (int i = 0; i < 20; ++i) {
      cpu::TraceOp op;
      op.kind = cpu::OpKind::kLoad;
      op.addr = Addr(t) * (1 << 16) + Addr(i) * 64;
      op.size = 64;
      traces[t].ops.push_back(op);
    }
  }
  std::vector<cpu::TraceReplay> replays(traces.begin(), traces.end());
  std::vector<cpu::OpSource*> ptrs;
  for (auto& replay : replays) ptrs.push_back(&replay);
  bool done = false;
  ndp.run(ptrs, [&done] { done = true; });
  queue.run();
  EXPECT_TRUE(done);
  // Work landed in at least 16 distinct cores (2 per stack here).
  unsigned active = 0;
  for (unsigned s = 0; s < ndp.stack_count(); ++s) {
    for (unsigned c = 0; c < ndp.stack(s).core_count(); ++c) {
      if (ndp.stack(s).core(c).counters().loads > 0) ++active;
    }
  }
  EXPECT_EQ(active, 32u);
}

TEST(NdpSystemTest, LocalAccessBeatsCpuPort) {
  // The core premise of NDP: a stack-local access is much faster than the
  // CPU's SerDes+mesh round trip to the same data.
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  TimePs local_done = 0;
  mem::MemRequest local;
  local.addr = 0;
  local.size = 64;
  local.on_complete = [&local_done](TimePs at) { local_done = at; };
  ndp.stack(0).dram().access(std::move(local));
  queue.run();

  sim::EventQueue queue2;
  NdpSystem ndp2("ndp2", queue2, NdpSystemConfig::table3());
  TimePs remote_done = 0;
  mem::MemRequest remote;
  remote.addr = 10 * 64;  // stack 10: several mesh hops from any corner
  remote.size = 64;
  remote.on_complete = [&remote_done](TimePs at) { remote_done = at; };
  ndp2.cpu_port().access(std::move(remote));
  queue2.run();
  EXPECT_GT(remote_done, local_done * 2);
}

TEST(NdpSystemTest, RejectsTooManyTraces) {
  sim::EventQueue queue;
  NdpSystem ndp("ndp", queue, NdpSystemConfig::table3());
  cpu::Trace trace;
  cpu::TraceReplay replay(trace);
  std::vector<cpu::OpSource*> ptrs(257, &replay);
  EXPECT_THROW(ndp.run(ptrs, [] {}), NdftError);
}

}  // namespace
}  // namespace ndft::ndp
