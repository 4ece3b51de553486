// Tests of the co-design loop through the Engine: record_trace on real
// physics jobs, trace serialization on JobResult, the CoDesignJob replay
// (calibrate + plan + simulate) of recorded SCF and LR-TDDFT traces, and
// the acceptance bound on the calibrated CPU roofline (estimates within
// 2x of measured kernel times for the traced run's significant kernels).

#include <gtest/gtest.h>

#include <string>

#include "api/engine.hpp"
#include "common/json.hpp"
#include "runtime/calibrate.hpp"

namespace ndft::api {
namespace {

/// Fast sampling so simulation-backed tests stay quick.
EngineConfig fast_config() {
  EngineConfig config;
  config.dispatch_threads = 0;
  config.system.sampled_ops_per_kernel = 20000;
  config.system.min_ops_per_core = 200;
  return config;
}

/// A small SCF job whose trace carries a few iterations of real kernels.
ScfJob traced_scf() {
  ScfJob job;
  job.atoms = 8;
  job.ecut_ry = 4.0;
  job.scf.max_iterations = 4;
  job.record_trace = true;
  return job;
}

/// The LR-TDDFT Si_8 run whose trace the co-design loop replays: the
/// Casida window of 4 valence x 4 conduction bands on the EPM ground
/// state.
LrtddftJob traced_lrtddft() {
  LrtddftJob job;
  job.atoms = 8;
  job.ecut_ry = 4.5;
  job.config.valence_window = 4;
  job.config.conduction_window = 4;
  job.record_trace = true;
  return job;
}

TEST(RecordTraceTest, ScfJobCarriesTrace) {
  Engine engine(fast_config());
  const JobResult result = engine.run(traced_scf());
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.trace.has_value());
  const KernelTrace& trace = *result.trace;
  EXPECT_FALSE(trace.events.empty());
  EXPECT_EQ(trace.atoms, 8u);
  EXPECT_GT(trace.basis_size, 0u);
  EXPECT_GT(trace.grid_points, 0u);
  EXPECT_EQ(trace.pool_threads, engine.pool_threads());
  // One eigensolve per iteration, stamped with its stage.
  EXPECT_EQ(trace.count_of(KernelClass::kSyevd), 4u);
  bool staged = false;
  for (const TraceEvent& event : trace.events) {
    if (event.stage.rfind("scf[", 0) == 0) staged = true;
  }
  EXPECT_TRUE(staged);
}

TEST(RecordTraceTest, UntracedJobCarriesNoTrace) {
  Engine engine(fast_config());
  ScfJob job = traced_scf();
  job.record_trace = false;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.trace.has_value());
  // Serialized form keeps the member null, additively.
  EXPECT_TRUE(result.to_json().at("trace").is_null());
}

TEST(RecordTraceTest, TraceRoundTripsThroughJobResultJson) {
  Engine engine(fast_config());
  const JobResult result = engine.run(traced_scf());
  ASSERT_TRUE(result.ok());
  const std::string dumped = result.to_json().dump(2);
  const JobResult rebuilt = JobResult::from_json(Json::parse(dumped));
  EXPECT_EQ(rebuilt.to_json().dump(2), dumped);
  ASSERT_TRUE(rebuilt.trace.has_value());
  EXPECT_EQ(rebuilt.trace->events.size(), result.trace->events.size());
}

TEST(CoDesignTest, ValidationRejectsEmptyTrace) {
  Engine engine(fast_config());
  CoDesignJob job;
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kInvalid);
  EXPECT_EQ(result.error, ErrorKind::kInvalidRequest);
}

TEST(CoDesignTest, RecordedTraceReplaysThroughEngine) {
  Engine engine(fast_config());
  for (const JobRequest& source :
       {JobRequest(traced_scf()), JobRequest(traced_lrtddft())}) {
    SCOPED_TRACE(job_kind(source));
    const JobResult recorded = engine.run(source);
    ASSERT_TRUE(recorded.ok()) << recorded.error_message;
    ASSERT_TRUE(recorded.trace.has_value());
    ASSERT_FALSE(recorded.trace->events.empty());

    CoDesignJob replay;
    replay.trace = *recorded.trace;
    replay.simulate = true;
    const JobResult result = engine.run(replay);
    ASSERT_TRUE(result.ok()) << result.error_message;
    ASSERT_TRUE(result.codesign.has_value());
    const CoDesignPayload& payload = *result.codesign;

    // The measured kernel times fitted the CPU roofline.
    EXPECT_TRUE(payload.calibration.calibrated);

    // The plan covers every schedulable trace event, placements and
    // crossings included.
    EXPECT_EQ(payload.trace_events, recorded.trace->events.size());
    ASSERT_FALSE(payload.plan.placements.empty());
    EXPECT_LE(payload.plan.placements.size(), payload.trace_events);
    EXPECT_GT(payload.plan.est_total_ps, 0u);
    unsigned crossings = 0;
    for (const PlacementPayload& placement : payload.plan.placements) {
      if (placement.crossing) ++crossings;
    }
    EXPECT_EQ(crossings, payload.plan.crossings);

    // The simulated execution of the planned schedule is attached.
    ASSERT_TRUE(payload.simulate.has_value());
    EXPECT_EQ(payload.simulate->kernels.size(),
              payload.plan.placements.size());
    EXPECT_GT(payload.simulate->total_ps, 0u);
    EXPECT_EQ(payload.simulate->atoms, 8u);

    // Placements and crossings are reported in the JobResult JSON and the
    // document round-trips exactly.
    const std::string dumped = result.to_json().dump(2);
    EXPECT_NE(dumped.find("\"placements\""), std::string::npos);
    EXPECT_NE(dumped.find("\"crossings\""), std::string::npos);
    const JobResult rebuilt = JobResult::from_json(Json::parse(dumped));
    EXPECT_EQ(rebuilt.to_json().dump(2), dumped);
  }
}

TEST(CoDesignTest, CalibratedCpuEstimatesWithinTwoXOfMeasured) {
  // The acceptance bound of the co-design loop: after calibration, the
  // SCA's CPU roofline must reproduce every significant measured kernel
  // time (>= 2% of the traced total; sub-floor kernels are dominated by
  // call overhead the roofline does not model) within a factor of two.
  // Wall-clock measurement on a potentially loaded machine: warm up
  // first and accept the best of three recordings, so one preempted
  // kernel cannot fail the bound (same policy as the bench smoke gates).
  Engine engine(fast_config());
  ScfJob job = traced_scf();
  job.record_trace = false;
  (void)engine.run(job);  // warm the pool, plans and allocators first

  CalibrationPayload best;
  best.max_ratio = 1e18;
  for (int attempt = 0; attempt < 3 && best.max_ratio > 2.0; ++attempt) {
    const JobResult recorded = engine.run(traced_scf());
    ASSERT_TRUE(recorded.ok()) << recorded.error_message;
    CoDesignJob replay;
    replay.trace = *recorded.trace;
    replay.simulate = false;
    const JobResult result = engine.run(replay);
    ASSERT_TRUE(result.ok()) << result.error_message;
    const CalibrationPayload& calibration = result.codesign->calibration;
    if (calibration.calibrated && calibration.max_ratio < best.max_ratio) {
      best = calibration;
    }
  }
  EXPECT_TRUE(best.calibrated);
  EXPECT_GT(best.fitted_events, 0u);
  EXPECT_GT(best.peak_gflops, 0.0);
  EXPECT_GT(best.dram_gbps, 0.0);
  EXPECT_LE(best.max_ratio, 2.0)
      << "calibrated roofline misses measured kernel times";
}

TEST(CoDesignTest, CalibrationChangesTheCpuBeliefs) {
  // Direct check that the fitted profile differs from the paper's
  // Table III beliefs and reproduces through the public entry point.
  Engine engine(fast_config());
  (void)engine.run(traced_scf());  // warm
  const JobResult recorded = engine.run(traced_scf());
  ASSERT_TRUE(recorded.ok());
  const runtime::DeviceProfile base =
      engine.system_config().cpu_profile;
  const runtime::CpuCalibration calibration =
      runtime::calibrate_cpu(*recorded.trace, base);
  ASSERT_TRUE(calibration.calibrated);
  // The fit keeps the non-roofline beliefs (links, switch latency).
  EXPECT_EQ(calibration.profile.link_gbps, base.link_gbps);
  EXPECT_EQ(calibration.profile.switch_latency_ps, base.switch_latency_ps);
  // On any real machine at least one achieved rate differs from the
  // paper's Table III beliefs (which constant moves depends on whether
  // the trace's significant kernels were compute- or memory-bound).
  EXPECT_TRUE(calibration.profile.peak_gflops != base.peak_gflops ||
              calibration.profile.dram_gbps != base.dram_gbps ||
              calibration.profile.blocked_compute_efficiency !=
                  base.blocked_compute_efficiency);
}

}  // namespace
}  // namespace ndft::api
