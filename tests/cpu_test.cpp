// Unit and property tests for the trace generator and the trace-driven
// core/complex timing models.

#include <gtest/gtest.h>

#include <set>

#include "cpu/cpu_complex.hpp"
#include "cpu/trace_gen.hpp"
#include "mem/dram_system.hpp"
#include "sim/event_queue.hpp"

namespace ndft::cpu {
namespace {

/// Instant-response memory: completes every request after a fixed latency.
class FixedLatencyMemory : public mem::MemoryPort {
 public:
  FixedLatencyMemory(sim::EventQueue& queue, TimePs latency)
      : queue_(&queue), latency_(latency) {}

  void access(mem::MemRequest req) override {
    ++requests;
    if (req.on_complete) {
      auto cb = std::move(req.on_complete);
      queue_->schedule_after(latency_, [cb = std::move(cb), this] {
        cb(queue_->now());
      });
    }
  }

  unsigned requests = 0;

 private:
  sim::EventQueue* queue_;
  TimePs latency_;
};

// ---------------------------------------------------------------- traces

TEST(TraceGenTest, PureComputeKernel) {
  TraceParams params;
  params.flops = 1000;
  params.bytes_read = 0;
  params.bytes_written = 0;
  const Trace trace = generate_trace(params);
  ASSERT_EQ(trace.ops.size(), 1u);
  EXPECT_EQ(trace.ops[0].kind, OpKind::kCompute);
  EXPECT_EQ(trace.total_flops(), 1000u);
  EXPECT_DOUBLE_EQ(trace.scale, 1.0);
}

TEST(TraceGenTest, SamplingPreservesArithmeticIntensity) {
  TraceParams params;
  params.flops = 1u << 24;
  params.bytes_read = 1u << 26;
  params.bytes_written = 1u << 24;
  params.max_mem_ops = 5000;
  const Trace trace = generate_trace(params);
  const double requested_ai =
      static_cast<double>(params.flops) /
      static_cast<double>(params.bytes_read + params.bytes_written);
  const double sampled_ai = static_cast<double>(trace.total_flops()) /
                            static_cast<double>(trace.total_bytes());
  EXPECT_NEAR(sampled_ai, requested_ai, requested_ai * 0.02);
}

TEST(TraceGenTest, ScaleTimesSampleEqualsRequested) {
  TraceParams params;
  params.bytes_read = 10'000'000;
  params.bytes_written = 0;
  params.max_mem_ops = 1000;
  const Trace trace = generate_trace(params);
  const double reconstructed =
      trace.scale * static_cast<double>(trace.total_bytes());
  EXPECT_NEAR(reconstructed, 10'000'000.0, 700000.0);
}

TEST(TraceGenTest, SequentialAddressesAreContiguous) {
  TraceParams params;
  params.bytes_read = 64 * 100;
  params.working_set = 64 * 1000;
  params.pattern = AccessPattern::kSequential;
  params.base_addr = 1 << 20;
  const Trace trace = generate_trace(params);
  Addr expected = params.base_addr;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == OpKind::kCompute) continue;
    EXPECT_EQ(op.addr, expected);
    expected += 64;
  }
}

TEST(TraceGenTest, StridedUsesRequestedStride) {
  TraceParams params;
  params.bytes_read = 64 * 50;
  params.working_set = 1 << 20;
  params.pattern = AccessPattern::kStrided;
  params.stride_bytes = 1024;
  const Trace trace = generate_trace(params);
  Addr previous = 0;
  bool first = true;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == OpKind::kCompute) continue;
    if (!first) {
      EXPECT_EQ(op.addr - previous, 1024u);
    }
    first = false;
    previous = op.addr;
  }
}

TEST(TraceGenTest, RandomStaysInWorkingSet) {
  TraceParams params;
  params.bytes_read = 64 * 500;
  params.working_set = 1 << 16;
  params.pattern = AccessPattern::kRandom;
  params.base_addr = 1 << 24;
  const Trace trace = generate_trace(params);
  for (const TraceOp& op : trace.ops) {
    if (op.kind == OpKind::kCompute) continue;
    EXPECT_GE(op.addr, params.base_addr);
    EXPECT_LT(op.addr, params.base_addr + params.working_set);
  }
}

TEST(TraceGenTest, BlockedPatternRevisitsTiles) {
  TraceParams params;
  params.bytes_read = 64 * 4096;  // 4 sweeps of a 64 KiB working set
  params.working_set = 64 * 1024;
  params.pattern = AccessPattern::kBlocked;
  params.block_bytes = 16 * 1024;
  const Trace trace = generate_trace(params);
  std::set<Addr> unique;
  unsigned mem_ops = 0;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == OpKind::kCompute) continue;
    unique.insert(op.addr);
    ++mem_ops;
  }
  // Reuse factor 4: unique addresses are ~1/4 of accesses.
  EXPECT_LT(unique.size() * 3, mem_ops);
}

TEST(TraceGenTest, WritesBatchedAndProportional) {
  TraceParams params;
  params.bytes_read = 64 * 800;
  params.bytes_written = 64 * 800;  // 50 % writes
  params.working_set = 1 << 20;
  const Trace trace = generate_trace(params);
  unsigned stores = 0;
  unsigned loads = 0;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == OpKind::kStore) ++stores;
    if (op.kind == OpKind::kLoad) ++loads;
  }
  EXPECT_NEAR(static_cast<double>(stores) / (stores + loads), 0.5, 0.05);
}

TEST(TraceGenTest, RejectsBadParams) {
  TraceParams params;
  params.access_bytes = 0;
  EXPECT_THROW(generate_trace(params), NdftError);
  params.access_bytes = 128;
  EXPECT_THROW(generate_trace(params), NdftError);
}

// ----------------------------------------------------------------- cores

TEST(CoreTest, ComputeBoundTimeMatchesPeakRate) {
  sim::EventQueue queue;
  FixedLatencyMemory memory(queue, 1000);
  CoreConfig config;
  config.freq_mhz = 1000;       // 1 ns cycle
  config.flops_per_cycle = 4.0;
  Core core("c", queue, config, memory);

  Trace trace;
  TraceOp op;
  op.kind = OpKind::kCompute;
  op.flops = 4000;  // 1000 cycles = 1 us
  trace.ops.push_back(op);

  bool done = false;
  TraceReplay replay(trace);
  core.run_trace(replay, [&] { done = true; });
  queue.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(queue.now(), 1000 * kPsPerNs);
}

TEST(CoreTest, MemoryLatencyBoundWithUnitMlp) {
  sim::EventQueue queue;
  FixedLatencyMemory memory(queue, 100000);  // 100 ns
  CoreConfig config;
  config.freq_mhz = 1000;
  config.max_outstanding = 1;  // serialise
  Core core("c", queue, config, memory);

  Trace trace;
  for (int i = 0; i < 10; ++i) {
    TraceOp op;
    op.kind = OpKind::kLoad;
    op.addr = Addr(i) * 64;
    op.size = 64;
    trace.ops.push_back(op);
  }
  TraceReplay replay(trace);
  core.run_trace(replay, [] {});
  queue.run();
  // 10 serialised loads of 100 ns each.
  EXPECT_GE(queue.now(), 10 * 100000u);
  EXPECT_LT(queue.now(), 11 * 100000u);
}

TEST(CoreTest, MlpOverlapsMisses) {
  const auto run_with_mlp = [](unsigned mlp) {
    sim::EventQueue queue;
    FixedLatencyMemory memory(queue, 100000);
    CoreConfig config;
    config.freq_mhz = 1000;
    config.max_outstanding = mlp;
    Core core("c", queue, config, memory);
    Trace trace;
    for (int i = 0; i < 32; ++i) {
      TraceOp op;
      op.kind = OpKind::kLoad;
      op.addr = Addr(i) * 64;
      op.size = 64;
      trace.ops.push_back(op);
    }
    TraceReplay replay(trace);
    core.run_trace(replay, [] {});
    queue.run();
    return queue.now();
  };
  const TimePs serial = run_with_mlp(1);
  const TimePs parallel = run_with_mlp(8);
  EXPECT_GT(serial, parallel * 6);  // ~8x overlap
}

TEST(CoreTest, RejectsConcurrentTraces) {
  sim::EventQueue queue;
  FixedLatencyMemory memory(queue, 1000);
  Core core("c", queue, CoreConfig{}, memory);
  Trace trace;
  TraceOp op;
  op.kind = OpKind::kLoad;
  trace.ops.push_back(op);
  TraceReplay first(trace);
  core.run_trace(first, [] {});
  EXPECT_TRUE(core.busy());
  TraceReplay second(trace);
  EXPECT_THROW(core.run_trace(second, [] {}), NdftError);
  queue.run();
  EXPECT_FALSE(core.busy());
}

TEST(CoreTest, CountersTrackWork) {
  sim::EventQueue queue;
  FixedLatencyMemory memory(queue, 1000);
  Core core("c", queue, CoreConfig{}, memory);
  Trace trace;
  TraceOp compute;
  compute.kind = OpKind::kCompute;
  compute.flops = 64;
  trace.ops.push_back(compute);
  TraceOp load;
  load.kind = OpKind::kLoad;
  load.size = 64;
  trace.ops.push_back(load);
  TraceOp store;
  store.kind = OpKind::kStore;
  store.size = 64;
  trace.ops.push_back(store);
  TraceReplay replay(trace);
  core.run_trace(replay, [] {});
  queue.run();
  EXPECT_EQ(core.counters().loads, 1u);
  EXPECT_EQ(core.counters().stores, 1u);
  EXPECT_DOUBLE_EQ(core.counters().flops, 64.0);
  EXPECT_DOUBLE_EQ(core.counters().mem_bytes, 128.0);
}

TEST(CoreConfigTest, PaperPresets) {
  EXPECT_NEAR(CoreConfig::xeon_core().peak_gflops(), 38.4, 0.1);
  EXPECT_NEAR(CoreConfig::host_core().peak_gflops(), 96.0, 0.1);
  EXPECT_NEAR(CoreConfig::ndp_core().peak_gflops(), 1.6, 0.05);
}

// --------------------------------------------------------------- complex

TEST(CpuComplexTest, BarrierWaitsForAllCores) {
  sim::EventQueue queue;
  mem::DramSystem dram("d", queue, mem::DramConfig::xeon_ddr4());
  CpuComplexConfig config = CpuComplexConfig::xeon_baseline();
  config.cores = 4;
  CpuComplex complex("cpu", queue, config, dram);

  // Core 0 gets much more work than the others.
  std::vector<Trace> traces(4);
  for (unsigned c = 0; c < 4; ++c) {
    const int ops = (c == 0) ? 400 : 10;
    for (int i = 0; i < ops; ++i) {
      TraceOp op;
      op.kind = OpKind::kLoad;
      op.addr = Addr(c) * (1 << 20) + Addr(i) * 64;
      op.size = 64;
      traces[c].ops.push_back(op);
    }
  }
  std::vector<TraceReplay> replays(traces.begin(), traces.end());
  std::vector<OpSource*> ptrs{&replays[0], &replays[1], &replays[2],
                              &replays[3]};
  bool done = false;
  complex.run(ptrs, [&] { done = true; });
  queue.run();
  EXPECT_TRUE(done);
  EXPECT_GT(complex.core(0).counters().loads, 300u);
}

TEST(CpuComplexTest, RejectsTooManyTraces) {
  sim::EventQueue queue;
  mem::DramSystem dram("d", queue, mem::DramConfig::xeon_ddr4());
  CpuComplexConfig config = CpuComplexConfig::xeon_baseline();
  config.cores = 2;
  CpuComplex complex("cpu", queue, config, dram);
  Trace trace;
  TraceReplay replay(trace);
  std::vector<OpSource*> ptrs{&replay, &replay, &replay};
  EXPECT_THROW(complex.run(ptrs, [] {}), NdftError);
}

TEST(CpuComplexTest, ConfigPresetsMatchPaper) {
  const CpuComplexConfig host = CpuComplexConfig::table3_host();
  EXPECT_EQ(host.cores, 8u);
  EXPECT_EQ(host.core.freq_mhz, 3000u);
  const CpuComplexConfig xeon = CpuComplexConfig::xeon_baseline();
  EXPECT_EQ(xeon.cores, 24u);
  EXPECT_EQ(xeon.core.freq_mhz, 2400u);
  EXPECT_NEAR(xeon.peak_gflops(), 921.6, 1.0);
}

}  // namespace
}  // namespace ndft::cpu
