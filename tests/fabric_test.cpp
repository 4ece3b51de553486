// Tests for the port/connection fabric and the machine-config plumbing
// built on top of it: credit-based back-pressure, bitwise determinism
// across component construction orders, the "ndft.machine.v1" document
// (strict parsing, the shipped Table-III example, fuzzing the Engine with
// malformed documents), and the simulator-trace -> calibrate -> profile
// store -> plan round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/job.hpp"
#include "api/result.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/kernel_trace.hpp"
#include "ndp/ndp_system.hpp"
#include "runtime/adaptive.hpp"
#include "runtime/device_profile.hpp"
#include "runtime/profile_store.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/stats.hpp"

namespace ndft {
namespace {

using api::Engine;
using api::EngineConfig;
using api::JobResult;
using api::JobStatus;
using sim::Connection;
using sim::CreditedSender;
using sim::Delivery;
using sim::EventQueue;
using sim::InputPort;
using sim::LinkConfig;
using sim::OutputPort;
using sim::StatSet;

// ---------------------------------------------------------------------------
// Wire timing.

TEST(ConnectionTest, CutThroughAndStoreForwardTiming) {
  EventQueue queue;
  StatSet stats;
  LinkConfig config;
  config.latency_ps = 100;
  config.gbps = 8.0;
  config.capacity = 4;
  const TimePs ser = transfer_time_ps(64, config.gbps);
  ASSERT_GT(ser, 0u);

  config.delivery = Delivery::kCutThrough;
  Connection<int> cut(queue, config, &stats);
  EXPECT_EQ(cut.send(1, 64), 100u);  // start 0 + latency
  // Second message waits for the wire: start = ser, arrival = ser + 100.
  EXPECT_EQ(cut.send(2, 64), ser + 100);
  // The wait shows up as wire contention, not a credit stall.
  EXPECT_DOUBLE_EQ(stats.get("contention_ps"), static_cast<double>(ser));

  config.delivery = Delivery::kStoreForward;
  Connection<int> sf(queue, config, &stats);
  EXPECT_EQ(sf.send(1, 64), ser + 100);  // serialization + latency
}

TEST(ConnectionTest, UntimedWireDeliversInline) {
  EventQueue queue;
  LinkConfig config;  // latency 0, gbps 0
  Connection<int> wire(queue, config, nullptr);
  bool seen = false;
  wire.on_receive([&] { seen = true; });
  wire.send(7, 64);
  EXPECT_TRUE(seen);  // delivered synchronously, no event needed
  EXPECT_EQ(wire.pop(), 7);
}

// ---------------------------------------------------------------------------
// Back-pressure: a burst through a small link stays bounded in-network
// while the staging FIFO absorbs (and accounts) the overflow.

/// A consumer that needs `service_ps` per message: the bottleneck that
/// makes the producer feel back-pressure.
struct SlowSink {
  EventQueue* queue = nullptr;
  InputPort<int> in;
  TimePs service_ps = 0;
  bool busy = false;
  std::vector<std::pair<TimePs, int>> got;

  void pump() {
    if (busy || in.empty()) return;
    busy = true;
    queue->schedule_after(service_ps, [this] {
      got.emplace_back(queue->now(), in.pop());
      busy = false;
      pump();
    });
  }
};

TEST(ConnectionTest, BackPressureBoundsQueueAndAccountsStalls) {
  EventQueue queue;
  StatSet stats;
  LinkConfig config;
  config.latency_ps = 10;
  config.capacity = 2;  // tiny in-network buffer
  Connection<int> link(queue, config, &stats);

  SlowSink sink;
  sink.queue = &queue;
  sink.in.bind(link);
  sink.service_ps = 500;
  sink.in.on_receive([&] { sink.pump(); });

  OutputPort<int> out(link);
  CreditedSender<int> sender(queue, out, &stats);
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) {
    sender.push(i, 64);
  }
  // Only `capacity` messages fit in flight; the rest stage at the sender.
  EXPECT_EQ(sender.staged(), static_cast<std::size_t>(kBurst) - 2);
  queue.run();

  // Everything arrived, in order, and the in-network queue stayed within
  // the credit bound the whole time.
  ASSERT_EQ(sink.got.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(sink.got[static_cast<std::size_t>(i)].second, i);
  }
  EXPECT_EQ(sender.staged(), 0u);
  EXPECT_LE(stats.get("queue_peak"), 2.0);
  // The stall is observable: 10 messages staged, each waiting on the
  // 500 ps service loop downstream.
  EXPECT_DOUBLE_EQ(stats.get("backpressure_stalls"),
                   static_cast<double>(kBurst - 2));
  EXPECT_DOUBLE_EQ(stats.get("staged_peak"),
                   static_cast<double>(kBurst - 2));
  EXPECT_GT(stats.get("backpressure_stall_ps"), 0.0);
}

TEST(ConnectionTest, ManualCreditHoldsUntilReturned) {
  EventQueue queue;
  LinkConfig config;
  config.capacity = 1;
  config.manual_credit = true;
  Connection<int> link(queue, config, nullptr);
  link.send(1, 0);
  queue.run();
  EXPECT_EQ(link.pop(), 1);
  EXPECT_FALSE(link.can_send());  // pop() did not return the credit
  link.return_credit();
  EXPECT_TRUE(link.can_send());
}

// ---------------------------------------------------------------------------
// Determinism: the fabric schedules events only when traffic flows, so
// results do not depend on the order components were constructed in.

struct FabricRun {
  std::vector<std::pair<TimePs, int>> log;
  std::map<std::string, double> stats;
};

/// Two producer->sink lanes sharing one event queue, with same-timestamp
/// traffic on both. `a_first` flips which lane's components are built
/// first; the observable behaviour must not change.
FabricRun run_two_lane_fabric(bool a_first) {
  EventQueue queue;
  StatSet stats;
  LinkConfig config;
  config.latency_ps = 50;
  config.capacity = 2;

  std::unique_ptr<Connection<int>> a;
  std::unique_ptr<Connection<int>> b;
  if (a_first) {
    a = std::make_unique<Connection<int>>(queue, config, &stats);
    b = std::make_unique<Connection<int>>(queue, config, &stats);
  } else {
    b = std::make_unique<Connection<int>>(queue, config, &stats);
    a = std::make_unique<Connection<int>>(queue, config, &stats);
  }

  FabricRun run;
  SlowSink sink_a;
  sink_a.queue = &queue;
  sink_a.in.bind(*a);
  sink_a.service_ps = 30;
  SlowSink sink_b;
  sink_b.queue = &queue;
  sink_b.in.bind(*b);
  sink_b.service_ps = 30;
  sink_a.in.on_receive([&] { sink_a.pump(); });
  sink_b.in.on_receive([&] { sink_b.pump(); });

  OutputPort<int> out_a(*a);
  OutputPort<int> out_b(*b);
  CreditedSender<int> send_a(queue, out_a, &stats);
  CreditedSender<int> send_b(queue, out_b, &stats);
  // Same-timestamp bursts on both lanes, issued in a fixed program order.
  for (int wave = 0; wave < 3; ++wave) {
    queue.schedule_at(static_cast<TimePs>(wave * 100), [&, wave] {
      for (int i = 0; i < 4; ++i) {
        send_a.push(wave * 10 + i, 64);
        send_b.push(wave * 10 + i + 100, 64);
      }
    });
  }
  queue.run();

  for (const auto& [t, v] : sink_a.got) run.log.emplace_back(t, v);
  for (const auto& [t, v] : sink_b.got) run.log.emplace_back(t, v);
  run.stats = stats.snapshot();
  return run;
}

TEST(ConnectionTest, SameTimestampFifoAcrossConstructionOrders) {
  const FabricRun forward = run_two_lane_fabric(true);
  const FabricRun reversed = run_two_lane_fabric(false);
  EXPECT_EQ(forward.log, reversed.log);
  EXPECT_EQ(forward.stats, reversed.stats);
  EXPECT_EQ(forward.log.size(), 24u);  // 2 lanes x 3 waves x 4 messages
}

// ---------------------------------------------------------------------------
// "ndft.machine.v1" documents.

TEST(MachineConfigTest, Table3RoundTripsBitwise) {
  const ndp::NdpSystemConfig table3 = ndp::NdpSystemConfig::table3();
  const Json doc = table3.to_json();
  const ndp::NdpSystemConfig parsed = ndp::NdpSystemConfig::from_json(doc);
  EXPECT_EQ(parsed.to_json().dump(), doc.dump());
}

TEST(MachineConfigTest, UnknownKeysAreRejected) {
  Json doc = ndp::NdpSystemConfig::table3().to_json();
  doc.set("surprise", Json(1));
  EXPECT_THROW(ndp::NdpSystemConfig::from_json(doc), NdftError);

  Json nested = ndp::NdpSystemConfig::table3().to_json();
  Json mesh = *nested.find("mesh");
  mesh.set("bogus", Json(2));
  nested.set("mesh", mesh);
  EXPECT_THROW(ndp::NdpSystemConfig::from_json(nested), NdftError);
}

TEST(MachineConfigTest, SchemaIsRequired) {
  Json doc = ndp::NdpSystemConfig::table3().to_json();
  doc.set("schema", Json("ndft.machine.v999"));
  EXPECT_THROW(ndp::NdpSystemConfig::from_json(doc), NdftError);
}

TEST(MachineConfigTest, ExampleFileMatchesBuiltinTable3) {
  const std::string path =
      std::string(NDFT_SOURCE_DIR) + "/examples/machines/table3.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  const ndp::NdpSystemConfig parsed = ndp::NdpSystemConfig::from_json(doc);
  // The shipped example IS the builtin Table-III machine: simulating it
  // reproduces the paper numbers exactly (tolerance 0, by construction).
  EXPECT_EQ(parsed.to_json().dump(),
            ndp::NdpSystemConfig::table3().to_json().dump());
}

// ---------------------------------------------------------------------------
// Fuzzing the Engine with malformed machine documents: every one is a
// clean kInvalid refusal, and the engine's observable state afterwards is
// bitwise identical to an engine that never saw them.

/// The result fields that must be bitwise stable across runs (wall-clock
/// timings and engine/job ids naturally differ).
Json normalized(JobResult result) {
  result.timings = {};
  result.engine = {};
  return result.to_json();
}

std::vector<Json> malformed_machines() {
  const Json good = ndp::NdpSystemConfig::table3().to_json();
  std::vector<Json> bad;

  Json unknown_key = good;
  unknown_key.set("flux_capacitor", Json(88));
  bad.push_back(unknown_key);

  Json wrong_schema = good;
  wrong_schema.set("schema", Json("ndft.workload.v1"));
  bad.push_back(wrong_schema);

  Json wrong_type = good;
  Json mesh = *good.find("mesh");
  mesh.set("width", Json("wide"));
  wrong_type.set("mesh", mesh);
  bad.push_back(wrong_type);

  Json zero_mesh = good;
  Json mesh0 = *good.find("mesh");
  mesh0.set("width", Json(0));
  zero_mesh.set("mesh", mesh0);
  bad.push_back(zero_mesh);

  Json bad_policy = good;
  Json stack = *good.find("stack");
  Json dram = *stack.find("dram");
  dram.set("page_policy", Json("ajar"));
  stack.set("dram", dram);
  bad_policy.set("stack", stack);
  bad.push_back(bad_policy);

  Json zero_queue = good;
  Json stack2 = *good.find("stack");
  Json dram2 = *stack2.find("dram");
  dram2.set("queue_depth", Json(0));
  stack2.set("dram", dram2);
  zero_queue.set("stack", stack2);
  bad.push_back(zero_queue);

  // The L1 MSHR table is allocated in full with the cache: a count beyond
  // cache::kMaxMshrs is refused before anything is built, and zero (every
  // miss would wait forever) is refused too.
  for (const std::uint64_t mshrs : {0ull, 4000000000ull}) {
    Json mshr_doc = good;
    Json stack3 = *good.find("stack");
    Json l1 = *stack3.find("l1");
    l1.set("mshrs", Json(mshrs));
    stack3.set("l1", l1);
    mshr_doc.set("stack", stack3);
    bad.push_back(mshr_doc);
  }

  bad.push_back(Json("not an object"));
  bad.push_back(Json::array());
  return bad;
}

TEST(MachineFuzzTest, MalformedDocumentsAreInvalidWithoutStateLeak) {
  EngineConfig config;
  config.dispatch_threads = 0;
  Engine clean(config);   // never sees a malformed document
  Engine fuzzed(config);  // absorbs the whole fuzz corpus first

  for (const Json& doc : malformed_machines()) {
    api::SimulateJob job;
    job.atoms = 16;
    job.machine = doc;
    const JobResult result = fuzzed.run(job);
    EXPECT_EQ(result.status, JobStatus::kInvalid) << doc.dump();
    EXPECT_FALSE(result.error_details.empty()) << doc.dump();
    EXPECT_FALSE(result.simulate.has_value());
  }
  // Refusals happen at validation: nothing executed, nothing retried.
  EXPECT_EQ(fuzzed.jobs_started(), 0u);
  EXPECT_EQ(fuzzed.jobs_retried(), 0u);

  // The engine after the fuzz corpus behaves bitwise like one that never
  // saw it: zero state leakage from rejected documents.
  api::SimulateJob probe;
  probe.atoms = 16;
  const Json from_clean = normalized(clean.run(probe));
  const Json from_fuzzed = normalized(fuzzed.run(probe));
  EXPECT_EQ(from_clean.dump(), from_fuzzed.dump());
}

TEST(SimulateMachineTest, Table3DocumentReproducesDefaultMachine) {
  EngineConfig config;
  config.dispatch_threads = 0;
  Engine engine(config);

  api::SimulateJob plain;
  plain.atoms = 16;
  api::SimulateJob described;
  described.atoms = 16;
  described.machine = ndp::NdpSystemConfig::table3().to_json();

  const Json lhs = normalized(engine.run(plain));
  const Json rhs = normalized(engine.run(described));
  EXPECT_EQ(lhs.dump(), rhs.dump());
}

// ---------------------------------------------------------------------------
// Component statistics surface in the SimulatePayload.

TEST(SimulateStatsTest, BackPressureAndUtilizationObservableInPayload) {
  EngineConfig config;
  config.dispatch_threads = 0;
  Engine engine(config);

  api::SimulateJob job;
  job.atoms = 16;
  job.mode = core::ExecMode::kNdft;
  const JobResult result = engine.run(job);
  ASSERT_EQ(result.status, JobStatus::kOk);
  ASSERT_TRUE(result.simulate.has_value());
  const auto& stats = result.simulate->stats;
  ASSERT_FALSE(stats.empty());
  // The roll-up exposes traffic, utilization and the back-pressure
  // accounting of the credit fabric.
  EXPECT_GT(stats.at("mesh.hops"), 0.0);
  EXPECT_GT(stats.at("dram.reads"), 0.0);
  EXPECT_GT(stats.at("dram.channel_utilization"), 0.0);

  // Shrinking the fabric queues through a machine document makes the
  // credit stalls observable in the same payload.
  Json machine = ndp::NdpSystemConfig::table3().to_json();
  Json mesh = *machine.find("mesh");
  mesh.set("link_queue", Json(1));
  machine.set("mesh", mesh);
  Json stack = *machine.find("stack");
  Json dram = *stack.find("dram");
  dram.set("queue_depth", Json(2));
  stack.set("dram", dram);
  machine.set("stack", stack);

  api::SimulateJob squeezed;
  squeezed.atoms = 16;
  squeezed.mode = core::ExecMode::kNdft;
  squeezed.machine = machine;
  const JobResult squeezed_result = engine.run(squeezed);
  ASSERT_EQ(squeezed_result.status, JobStatus::kOk);
  const auto& squeezed_stats = squeezed_result.simulate->stats;
  double stalls = 0.0;
  for (const char* key :
       {"mesh.backpressure_stalls", "serdes.backpressure_stalls",
        "dram.backpressure_stalls", "spm.backpressure_stalls"}) {
    const auto it = squeezed_stats.find(key);
    if (it != squeezed_stats.end()) stalls += it->second;
  }
  EXPECT_GT(stalls, 0.0) << "no back-pressure counter in payload stats";

  // The CPU baseline reports its own DRAM-side counters.
  api::SimulateJob cpu;
  cpu.atoms = 16;
  cpu.mode = core::ExecMode::kCpuBaseline;
  const JobResult cpu_result = engine.run(cpu);
  ASSERT_EQ(cpu_result.status, JobStatus::kOk);
  EXPECT_GT(cpu_result.simulate->stats.at("dram.channel_utilization"), 0.0);
}

// ---------------------------------------------------------------------------
// Simulator-emitted traces close the loop: simulate -> calibrate ->
// profile store -> plan.

TEST(TraceRoundTripTest, SimulatorTraceCalibratesStoresAndSeedsPlans) {
  const std::string store_path = "fabric_test_profile_store.json";
  std::remove(store_path.c_str());

  EngineConfig config;
  config.dispatch_threads = 0;
  config.profile_store_path = store_path;

  std::string plan_with_store;
  {
    Engine engine(config);

    // 1. Simulate the CPU baseline and record the simulator-emitted trace.
    api::SimulateJob sim;
    sim.atoms = 32;
    sim.mode = core::ExecMode::kCpuBaseline;
    sim.record_trace = true;
    const JobResult simulated = engine.run(sim);
    ASSERT_EQ(simulated.status, JobStatus::kOk);
    ASSERT_TRUE(simulated.trace.has_value());
    ASSERT_FALSE(simulated.trace->events.empty());
    for (const TraceEvent& event : simulated.trace->events) {
      EXPECT_EQ(event.stage, "sim[cpu]");
      EXPECT_GE(event.host_ms, 0.0);
    }

    // 2. Replay it through co-design: calibration fits the CPU roofline
    //    and persists the fitted profile into the store.
    api::CoDesignJob codesign;
    codesign.trace = *simulated.trace;
    codesign.simulate = false;
    const JobResult replayed = engine.run(codesign);
    ASSERT_EQ(replayed.status, JobStatus::kOk);
    ASSERT_TRUE(replayed.codesign.has_value());
    ASSERT_TRUE(replayed.codesign->calibration.calibrated);

    // 3. A plan on the same engine now defaults to the stored beliefs.
    api::PlanJob plan;
    plan.atoms = 32;
    const JobResult planned = engine.run(plan);
    ASSERT_EQ(planned.status, JobStatus::kOk);
    ASSERT_TRUE(planned.plan.has_value());
    EXPECT_TRUE(planned.plan->used_stored_profile);
    plan_with_store = normalized(planned).dump();
  }

  // 4. A brand-new engine (same store path) picks the profile up from
  //    disk: the calibrated beliefs survive across engine lifetimes.
  {
    Engine engine(config);
    api::PlanJob plan;
    plan.atoms = 32;
    const JobResult planned = engine.run(plan);
    ASSERT_EQ(planned.status, JobStatus::kOk);
    ASSERT_TRUE(planned.plan->used_stored_profile);
    EXPECT_EQ(normalized(planned).dump(), plan_with_store);
  }

  // 5. Without a store, the same plan keeps the Table-III defaults.
  {
    EngineConfig bare;
    bare.dispatch_threads = 0;
    Engine engine(bare);
    api::PlanJob plan;
    plan.atoms = 32;
    const JobResult planned = engine.run(plan);
    ASSERT_EQ(planned.status, JobStatus::kOk);
    EXPECT_FALSE(planned.plan->used_stored_profile);
  }

  // 6. An explicit profile override beats the store.
  {
    Engine engine(config);
    api::PlanJob plan;
    plan.atoms = 32;
    plan.profile_override = {runtime::DeviceProfile::table3_cpu(),
                             runtime::DeviceProfile::table3_ndp()};
    const JobResult planned = engine.run(plan);
    ASSERT_EQ(planned.status, JobStatus::kOk);
    EXPECT_FALSE(planned.plan->used_stored_profile);
  }

  std::remove(store_path.c_str());
}

TEST(AdaptiveTraceTest, RecordTraceDecodesStagesAndSkipsZeroTime) {
  const runtime::DeviceProfile cpu = runtime::DeviceProfile::table3_cpu();
  const runtime::DeviceProfile ndp = runtime::DeviceProfile::table3_ndp();
  const runtime::Sca sca(cpu, ndp);
  const runtime::CostModel cost(cpu, ndp);
  runtime::AdaptiveScheduler scheduler(sca, cost);

  KernelTrace trace;
  TraceEvent on_cpu;
  on_cpu.name = "fft_forward";
  on_cpu.stage = "sim[cpu]";
  on_cpu.host_ms = 2.0;
  TraceEvent on_ndp;
  on_ndp.name = "fft_forward";
  on_ndp.stage = "sim[ndp]";
  on_ndp.host_ms = 0.5;
  TraceEvent zero_time;
  zero_time.name = "noop";
  zero_time.stage = "sim[cpu]";
  zero_time.host_ms = 0.0;
  trace.events = {on_cpu, on_ndp, zero_time};

  EXPECT_EQ(scheduler.record_trace(trace), 2u);
  EXPECT_TRUE(scheduler.has_measurement("fft_forward", DeviceKind::kCpu));
  EXPECT_TRUE(scheduler.has_measurement("fft_forward", DeviceKind::kNdp));
  EXPECT_FALSE(scheduler.has_measurement("noop", DeviceKind::kCpu));
  EXPECT_EQ(scheduler.measurement_count(), 2u);
}

}  // namespace
}  // namespace ndft
