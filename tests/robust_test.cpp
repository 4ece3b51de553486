// Adversarial robustness tests: the fault-injection harness (spec
// grammar, deterministic replay, site catalog, and a sweep holding every
// registered site to its class contract), cooperative cancellation
// and deadlines at stage boundaries, the Engine's retry/backoff loop for
// transient failures, graceful degradation (solver fallbacks, untraced
// runs), exactly-once cancellation accounting under races, starvation
// aging, and a deterministic malformed-request fuzz sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "dft/linalg.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace ndft::api {
namespace {

/// Fast simulation sampling so engine-backed tests stay quick.
EngineConfig fast_config(std::size_t dispatch_threads = 0) {
  EngineConfig config;
  config.dispatch_threads = dispatch_threads;
  config.system.sampled_ops_per_kernel = 20000;
  config.system.min_ops_per_core = 200;
  return config;
}

/// Every test leaves the process-wide fault state clean, even on failure.
class FaultFixture : public ::testing::Test {
 protected:
  void TearDown() override { fault_clear(); }
};

// ------------------------------------------------------------ fault spec

using FaultSpecTest = FaultFixture;

TEST_F(FaultSpecTest, ParsesSeedSitesAndCaps) {
  const FaultSpec spec =
      FaultSpec::parse("seed=7; scf.alloc=0.5, trace.recorder=1.0@1");
  EXPECT_EQ(spec.seed, 7u);
  ASSERT_EQ(spec.rules.size(), 2u);
  EXPECT_EQ(spec.rules[0].site, "scf.alloc");
  EXPECT_DOUBLE_EQ(spec.rules[0].probability, 0.5);
  EXPECT_EQ(spec.rules[0].max_fires, 0u);
  EXPECT_EQ(spec.rules[1].site, "trace.recorder");
  EXPECT_DOUBLE_EQ(spec.rules[1].probability, 1.0);
  EXPECT_EQ(spec.rules[1].max_fires, 1u);
}

TEST_F(FaultSpecTest, EmptySpecHasNoRules) {
  EXPECT_TRUE(FaultSpec::parse("").empty());
  EXPECT_TRUE(FaultSpec::parse("  ").empty());
}

TEST_F(FaultSpecTest, RejectsUnknownSitesAndBadSyntax) {
  EXPECT_THROW(FaultSpec::parse("no.such.site=1.0"), NdftError);
  EXPECT_THROW(FaultSpec::parse("scf.alloc"), NdftError);
  EXPECT_THROW(FaultSpec::parse("scf.alloc=2.0"), NdftError);
  EXPECT_THROW(FaultSpec::parse("scf.alloc=-0.1"), NdftError);
  EXPECT_THROW(FaultSpec::parse("scf.alloc=nan"), NdftError);
  EXPECT_THROW(FaultSpec::parse("seed=banana"), NdftError);
  EXPECT_THROW(FaultSpec::parse("=0.5"), NdftError);
}

TEST_F(FaultSpecTest, CatalogIsNonEmptyAndStable) {
  const auto& sites = fault_sites();
  ASSERT_FALSE(sites.empty());
  for (const FaultSite& site : sites) {
    EXPECT_NE(site.name, nullptr);
    EXPECT_NE(site.description, nullptr);
    // Every cataloged name parses as a spec entry.
    const FaultSpec spec =
        FaultSpec::parse(std::string(site.name) + "=0.25");
    ASSERT_EQ(spec.rules.size(), 1u);
    EXPECT_EQ(spec.rules[0].site, site.name);
  }
}

TEST_F(FaultSpecTest, WildcardArmsEveryUnconfiguredSite) {
  fault_install(FaultSpec::parse("*=1.0"));
  EXPECT_TRUE(fault_enabled());
  for (const FaultSite& site : fault_sites()) {
    EXPECT_TRUE(fault_fires(site.name)) << site.name;
  }
  // An explicit zero rule beats the wildcard.
  fault_install(FaultSpec::parse("*=1.0;scf.alloc=0.0"));
  EXPECT_FALSE(fault_fires("scf.alloc"));
  EXPECT_TRUE(fault_fires("bands.alloc"));
}

TEST_F(FaultSpecTest, DisabledPathIsInert) {
  fault_clear();
  EXPECT_FALSE(fault_enabled());
  EXPECT_FALSE(fault_fires("scf.alloc"));
  EXPECT_NO_THROW(fault_point("scf.alloc"));
}

TEST_F(FaultSpecTest, ReplayIsBitwiseDeterministic) {
  const FaultSpec spec = FaultSpec::parse("seed=3;scf.alloc=0.35");
  fault_install(spec);
  std::vector<bool> first;
  for (int i = 0; i < 256; ++i) first.push_back(fault_fires("scf.alloc"));
  // Reinstalling the same spec resets the sequence counters: the exact
  // same fire pattern replays.
  fault_install(spec);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(fault_fires("scf.alloc"), first[i]) << "draw " << i;
  }
  // p = 0.35 over 256 draws: both outcomes occur (fixed seed, so this is
  // a deterministic property of the stream, not a statistical hope).
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 256);
}

TEST_F(FaultSpecTest, SitesDrawIndependentStreams) {
  fault_install(FaultSpec::parse("seed=3;scf.alloc=0.5;bands.alloc=0.5"));
  std::vector<bool> a;
  std::vector<bool> b;
  for (int i = 0; i < 128; ++i) {
    a.push_back(fault_fires("scf.alloc"));
    b.push_back(fault_fires("bands.alloc"));
  }
  EXPECT_NE(a, b);  // site name keys the hash: distinct streams
}

TEST_F(FaultSpecTest, MaxFiresCapsInjection) {
  fault_install(FaultSpec::parse("engine.alloc=1.0@2"));
  EXPECT_TRUE(fault_fires("engine.alloc"));
  EXPECT_TRUE(fault_fires("engine.alloc"));
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(fault_fires("engine.alloc"));
  }
}

TEST_F(FaultSpecTest, FaultPointThrowsClassified) {
  fault_install(FaultSpec::parse("sim.mem=1.0"));
  try {
    fault_point("sim.mem");
    FAIL() << "fault_point did not throw";
  } catch (const FaultInjected& fault) {
    EXPECT_EQ(fault.site(), "sim.mem");
    EXPECT_EQ(fault.fault_class(), FaultClass::kDevice);
    EXPECT_EQ(fault.sequence(), 0u);
  }
  // FaultInjected is an NdftError: un-instrumented layers see a normal
  // framework error.
  fault_install(FaultSpec::parse("sim.mem=1.0"));
  EXPECT_THROW(fault_point("sim.mem"), NdftError);
}

// ----------------------------------------------------- enum round trips

TEST(EnumRoundTripTest, JobStatusNamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(JobStatus::kCount_); ++i) {
    const auto status = static_cast<JobStatus>(i);
    EXPECT_EQ(job_status_from_string(to_string(status)), status);
  }
  EXPECT_THROW(job_status_from_string("not-a-status"), NdftError);
  EXPECT_THROW(job_status_from_string(""), NdftError);
}

TEST(EnumRoundTripTest, ErrorKindNamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(ErrorKind::kCount_); ++i) {
    const auto kind = static_cast<ErrorKind>(i);
    EXPECT_EQ(error_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(error_kind_from_string("not-an-error"), NdftError);
}

TEST(EnumRoundTripTest, TransienceTaxonomy) {
  EXPECT_TRUE(is_transient(ErrorKind::kTransientResource));
  EXPECT_TRUE(is_transient(ErrorKind::kTransientDevice));
  EXPECT_FALSE(is_transient(ErrorKind::kNone));
  EXPECT_FALSE(is_transient(ErrorKind::kInvalidRequest));
  EXPECT_FALSE(is_transient(ErrorKind::kPhysics));
  EXPECT_FALSE(is_transient(ErrorKind::kInternal));
  EXPECT_FALSE(is_transient(ErrorKind::kCancelled));
  EXPECT_FALSE(is_transient(ErrorKind::kDeadlineExceeded));
}

// ------------------------------------------------------- retry / backoff

using EngineRetryTest = FaultFixture;

TEST_F(EngineRetryTest, TransientFaultRetriesToSuccess) {
  EngineConfig config = fast_config();
  config.fault_spec = "engine.alloc=1.0@1";  // first attempt only
  config.retry_backoff_ms = 0.1;
  Engine engine(config);
  const JobResult result = engine.run(PlanJob{});
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.engine.attempts, 2u);
  EXPECT_GT(result.timings.backoff_ms, 0.0);
  EXPECT_EQ(engine.jobs_retried(), 1u);
  // The attempt count survives the JSON round trip (additive in v1).
  const JobResult rebuilt =
      JobResult::from_json(Json::parse(result.to_json().dump()));
  EXPECT_EQ(rebuilt.engine.attempts, 2u);
  EXPECT_EQ(rebuilt.to_json().dump(), result.to_json().dump());
}

TEST_F(EngineRetryTest, SubmitPathPreservesAttemptCount) {
  // Regression: execute_queued merges the pre-stamped queue metadata
  // (id/kind/exec_seq) into the executed result; that merge used to
  // clobber the retry loop's attempt count back to 1.
  EngineConfig config = fast_config();
  config.fault_spec = "engine.alloc=1.0@1";
  config.retry_backoff_ms = 0.1;
  Engine engine(config);
  JobHandle handle = engine.submit(PlanJob{});
  engine.drain();
  const JobResult result = handle.wait();
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.engine.attempts, 2u);
  EXPECT_GT(result.timings.backoff_ms, 0.0);
  EXPECT_EQ(result.engine.exec_seq, 1u);  // queue stamps still present
  EXPECT_EQ(engine.jobs_retried(), 1u);
}

TEST_F(EngineRetryTest, FirstRetryBackoffIsCapped) {
  // The cap holds from the first retry on: a 200 ms base sleeps
  // min(200 * 2^0, 50) = 50 ms before retry 1, not 200.
  EngineConfig config = fast_config();
  config.fault_spec = "engine.alloc=1@1";
  config.retry_backoff_ms = 200.0;
  Engine engine(config);
  const JobResult result = engine.run(PlanJob{});
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.engine.attempts, 2u);
  EXPECT_EQ(result.timings.backoff_ms, 50.0);
}

TEST_F(EngineRetryTest, ExhaustedRetriesSurfaceClassified) {
  EngineConfig config = fast_config();
  config.fault_spec = "engine.alloc=1.0";  // every attempt fails
  config.max_attempts = 2;
  config.retry_backoff_ms = 0.1;
  Engine engine(config);
  const JobResult result = engine.run(PlanJob{});
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kTransientResource);
  EXPECT_EQ(result.engine.attempts, 2u);
  EXPECT_FALSE(result.error_message.empty());
  EXPECT_EQ(engine.jobs_retried(), 1u);
}

TEST_F(EngineRetryTest, DeviceFaultsClassifyTransientDevice) {
  EngineConfig config = fast_config();
  config.fault_spec = "sim.mem=1.0";
  config.max_attempts = 1;  // retry disabled: the raw classification
  Engine engine(config);
  SimulateJob job;
  job.atoms = 16;
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kTransientDevice);
  EXPECT_EQ(result.engine.attempts, 1u);
  EXPECT_EQ(engine.jobs_retried(), 0u);
}

TEST_F(EngineRetryTest, PermanentErrorsDoNotRetry) {
  EngineConfig config = fast_config();
  config.max_attempts = 3;
  Engine engine(config);
  ScfJob job;
  job.scf.bands = 1;  // physically absurd: solver rejects permanently
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kPhysics);
  EXPECT_EQ(result.engine.attempts, 1u);
  EXPECT_EQ(engine.jobs_retried(), 0u);
}

// -------------------------------------------------- graceful degradation

using DegradationTest = FaultFixture;

TEST_F(DegradationTest, SolverFaultFallsBackToFullSolver) {
  EngineConfig config = fast_config();
  config.fault_spec = "solver.syevd_partial=1.0@1";
  Engine engine(config);
  BandStructureJob job;
  job.segments = 2;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_FALSE(result.degraded.empty());
  EXPECT_EQ(result.degraded.front(), "syevd_partial:full_fallback");
  // The degraded job still answers the physics question.
  ASSERT_TRUE(result.band_structure.has_value());
  EXPECT_GT(result.band_structure->indirect_gap_ev, 0.0);
  // The degradation record survives serialization (additive in v1).
  const JobResult rebuilt =
      JobResult::from_json(Json::parse(result.to_json().dump()));
  ASSERT_FALSE(rebuilt.degraded.empty());
  EXPECT_EQ(rebuilt.degraded.front(), "syevd_partial:full_fallback");
}

TEST_F(DegradationTest, FallbackMatchesPartialSolverNumerics) {
  // The fallback path answers with the same eigenpairs the partial path
  // would have produced (to solver tolerance).
  dft::RealMatrix m(64, 64);
  for (std::size_t i = 0; i < 64; ++i) {
    m(i, i) = static_cast<double>(i) + 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      const double v = 0.1 / static_cast<double>(i + j + 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  const dft::EigenResult reference = dft::syevd_partial(m, 6);
  fault_install(FaultSpec::parse("solver.syevd_partial=1.0@1"));
  DegradationScope notes;
  const dft::EigenResult degraded = dft::syevd_partial(m, 6);
  const std::vector<std::string> taken = notes.take();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken.front(), "syevd_partial:full_fallback");
  ASSERT_EQ(degraded.eigenvalues.size(), 6u);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(degraded.eigenvalues[k], reference.eigenvalues[k], 1e-9);
  }
}

TEST_F(DegradationTest, DegradedWindowSolveRecordsTheFullSolve) {
  // A window solve that falls back to syevd records the solve it ran:
  // the faulted first iteration is priced as the full n = 179 solve, the
  // second as the parity-block window solve again.
  EngineConfig config = fast_config();
  config.fault_spec = "solver.syevd_partial=1.0@1";
  Engine engine(config);
  ScfJob job;
  job.record_trace = true;
  job.scf.max_iterations = 2;
  job.scf.tolerance = 1e-2;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.trace.has_value());
  std::vector<TraceEvent> solves;
  for (const TraceEvent& e : result.trace->events) {
    if (e.name == "syevd.partial") solves.push_back(e);
  }
  ASSERT_EQ(solves.size(), 2u);
  const dft::SyevdCost full = dft::syevd_cost(179);
  const dft::SyevdCost window = dft::syevd_partial_cost(179, 24);
  EXPECT_EQ(solves[0].stage, "scf[0]");
  EXPECT_EQ(solves[0].flops, full.flops);
  EXPECT_EQ(solves[0].bytes, full.bytes);
  EXPECT_EQ(solves[1].stage, "scf[1]");
  // Two staged windows, the even block of 90 and the odd block of 89: 24
  // values bisected in each, vectors for the 24 pairs kept between them.
  bool priced_as_blocks = false;
  for (std::size_t even = 0; even <= 24; ++even) {
    const dft::SyevdCost a = dft::syevd_window_cost(90, 24, even);
    const dft::SyevdCost b = dft::syevd_window_cost(89, 24, 24 - even);
    priced_as_blocks |= solves[1].flops == a.flops + b.flops &&
                        solves[1].bytes == a.bytes + b.bytes;
  }
  EXPECT_TRUE(priced_as_blocks) << solves[1].flops << " flops";
  EXPECT_LT(solves[1].flops, window.flops);
  EXPECT_LT(solves[1].bytes, window.bytes);
  for (const TraceEvent& solve : solves) {
    EXPECT_EQ(solve.dims[0], 179u);
    EXPECT_EQ(solve.dims[1], 24u);
  }
}

TEST_F(DegradationTest, TraceRecorderFaultDowngradesToUntraced) {
  EngineConfig config = fast_config();
  config.fault_spec = "trace.recorder=1.0";
  Engine engine(config);
  ScfJob job;
  job.record_trace = true;
  job.scf.max_iterations = 2;
  job.scf.tolerance = 1e-2;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_FALSE(result.trace.has_value());  // downgraded, not failed
  ASSERT_FALSE(result.degraded.empty());
  EXPECT_EQ(result.degraded.front(), "trace:recorder_failed");
}

// ------------------------------------------------------- fault-site sweep
// Every registered site, armed capped at one fire and then uncapped, is
// driven through the layer that owns it with a small job and held to the
// contract of its class. A site with no driver below fails the sweep, so
// a new site is covered the moment it is registered.

using FaultSweepTest = FaultFixture;

/// A small Engine job that reaches `site`; nullopt for the sites that are
/// not Engine-level failures (sim.port, net.accept) and unknown ones.
std::optional<JobRequest> job_for_site(const std::string& site) {
  if (site == "engine.alloc") return PlanJob{};
  if (site == "scf.alloc" || site == "trace.recorder") {
    ScfJob job;
    job.scf.max_iterations = 2;
    job.scf.tolerance = 1e-2;
    job.record_trace = site == "trace.recorder";
    return job;
  }
  if (site == "bands.alloc" || site == "solver.syevd_partial") {
    BandStructureJob job;
    job.segments = 1;
    return job;
  }
  if (site == "sim.mem") {
    SimulateJob job;
    job.atoms = 16;
    return job;
  }
  return std::nullopt;
}

/// Transient sites (resource, device): capped, the retry succeeds on
/// attempt 2; uncapped, the whole retry budget ends in a classified
/// transient failure. Degradable sites (solver, trace): the job stays Ok
/// and records how it degraded.
void sweep_engine_site(const FaultSite& site, const JobRequest& job) {
  constexpr unsigned kMaxAttempts = 3;
  const bool transient =
      site.cls == FaultClass::kResource || site.cls == FaultClass::kDevice;
  for (const bool capped : {true, false}) {
    SCOPED_TRACE(capped ? "capped @1" : "uncapped");
    EngineConfig config = fast_config();
    config.max_attempts = kMaxAttempts;
    config.retry_backoff_ms = 0.1;
    config.fault_spec = std::string(site.name) + (capped ? "=1.0@1" : "=1.0");
    Engine engine(config);
    const JobResult result = engine.run(job);
    if (!transient) {
      EXPECT_TRUE(result.ok()) << result.error_message;
      EXPECT_FALSE(result.degraded.empty());
    } else if (capped) {
      EXPECT_TRUE(result.ok()) << result.error_message;
      EXPECT_EQ(result.engine.attempts, 2u);
    } else {
      EXPECT_EQ(result.status, JobStatus::kFailed);
      EXPECT_TRUE(is_transient(result.error)) << to_string(result.error);
      EXPECT_EQ(result.engine.attempts, kMaxAttempts);
    }
  }
}

/// Sum of every "<group>.fault_delays" statistic of a simulate result.
double fault_delays(const JobResult& result) {
  double delays = 0.0;
  for (const auto& [key, value] : result.simulate->stats) {
    if (key.ends_with(".fault_delays")) delays += value;
  }
  return delays;
}

/// sim.port never throws: the simulated machine absorbs the dropped
/// message as a delayed retransmission. The job stays Ok on its first
/// attempt, the drops surface as fault_delays (exactly one when capped),
/// and simulated time never shrinks below the fault-free run.
void sweep_sim_port() {
  const auto run_once = [](const std::string& spec) {
    EngineConfig config = fast_config();
    config.fault_spec = spec;
    Engine engine(config);
    SimulateJob job;
    job.atoms = 16;
    return engine.run(job);
  };
  const JobResult clean = run_once("");
  ASSERT_TRUE(clean.ok()) << clean.error_message;
  EXPECT_EQ(fault_delays(clean), 0.0);
  for (const bool capped : {true, false}) {
    SCOPED_TRACE(capped ? "capped @1" : "uncapped");
    const JobResult result =
        run_once(capped ? "sim.port=1.0@1" : "sim.port=1.0");
    ASSERT_TRUE(result.ok()) << result.error_message;
    EXPECT_EQ(result.engine.attempts, 1u);
    EXPECT_GE(result.simulate->total_ps, clean.simulate->total_ps);
    if (capped) {
      EXPECT_EQ(fault_delays(result), 1.0);
    } else {
      EXPECT_GT(fault_delays(result), 1.0);
    }
  }
}

/// net.accept fires at the service boundary, not inside a job: a real
/// loopback server drops the accepted connection, and the client's
/// reconnect plays the Engine's retry. Capped, exactly the first of two
/// connections is dropped; uncapped, all three are.
void sweep_net_accept() {
  for (const bool capped : {true, false}) {
    SCOPED_TRACE(capped ? "capped @1" : "uncapped");
    fault_install(
        FaultSpec::parse(capped ? "net.accept=1.0@1" : "net.accept=1.0"));
    net::HttpServer server(net::ServerConfig{}, [](const net::HttpRequest&) {
      net::HttpResponse response;
      response.body = "ok";
      return response;
    });
    server.start();
    const auto served = [&server] {
      try {
        net::HttpClient client("127.0.0.1", server.port());
        return client.get("/").status == 200;
      } catch (const NdftError&) {
        return false;  // connection dropped at accept
      }
    };
    if (capped) {
      EXPECT_FALSE(served());
      EXPECT_TRUE(served());
      EXPECT_EQ(server.connections_dropped(), 1u);
    } else {
      for (int i = 0; i < 3; ++i) EXPECT_FALSE(served()) << "connection " << i;
      EXPECT_EQ(server.connections_dropped(), 3u);
    }
    server.shutdown();
  }
  fault_clear();
}

TEST_F(FaultSweepTest, EverySiteHonoursItsClassContract) {
  for (const FaultSite& site : fault_sites()) {
    const std::string name = site.name;
    SCOPED_TRACE(name);
    if (name == "sim.port") {
      sweep_sim_port();
    } else if (name == "net.accept") {
      sweep_net_accept();
    } else if (const std::optional<JobRequest> job = job_for_site(name)) {
      sweep_engine_site(site, *job);
    } else {
      ADD_FAILURE() << "no sweep driver for fault site " << name;
    }
  }
}

// ------------------------------------------------ cancellation/deadlines

TEST(EngineCancelTest, RunningScfJobCancelsAtStageBoundary) {
  Engine engine(fast_config(/*dispatch_threads=*/1));
  ScfJob job;
  job.scf.max_iterations = 1000000;  // would run ~forever uncancelled
  job.scf.tolerance = 1e-300;
  JobHandle handle = engine.submit(job);
  while (handle.status() == JobStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.cancel());
  const JobResult& result = handle.wait();
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.error, ErrorKind::kCancelled);
  EXPECT_FALSE(result.scf.has_value());
  EXPECT_EQ(engine.jobs_cancelled(), 1u);
  EXPECT_EQ(engine.jobs_completed(), 0u);
}

TEST(EngineCancelTest, RunningBandStructureJobCancelsAtStageBoundary) {
  Engine engine(fast_config(/*dispatch_threads=*/1));
  BandStructureJob job;
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 12;  // 1728 solves
  job.bands = 6;
  JobHandle handle = engine.submit(job);
  while (handle.status() == JobStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.cancel());
  const JobResult& result = handle.wait();
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(engine.jobs_cancelled(), 1u);
}

TEST(EngineCancelTest, DeadlineExpiresMidRun) {
  Engine engine(fast_config());
  ScfJob job;
  job.scf.max_iterations = 1000000;
  job.scf.tolerance = 1e-300;
  job.deadline_ms = 0.001;  // expires at the first stage boundary
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(result.error, ErrorKind::kDeadlineExceeded);
}

TEST(EngineCancelTest, QueuedDeadlineExpiresWithoutExecuting) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  PlanJob job;
  job.deadline_ms = 1.0;
  JobHandle handle = engine.submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.drain();
  const JobResult& result = handle.wait();
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(result.error, ErrorKind::kDeadlineExceeded);
  EXPECT_FALSE(result.plan.has_value());  // never executed
  EXPECT_EQ(engine.jobs_deadline_exceeded(), 1u);
}

TEST(EngineCancelTest, InvalidDeadlinesAreRejected) {
  Engine engine(fast_config());
  PlanJob job;
  job.deadline_ms = -1.0;
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);
  job.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);
  job.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);
  job.deadline_ms = 0.0;  // unlimited
  EXPECT_TRUE(engine.run(job).ok());
}

// --------------------------------------- exactly-once cancel accounting

TEST(EngineCancelTest, ConcurrentCancelsCountEachJobOnce) {
  // Regression for the cancel-race double count: many threads cancelling
  // the same queued jobs must produce exactly one winner per job.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  constexpr std::size_t kJobs = 32;
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(engine.submit(PlanJob{}));
  }
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (JobHandle& handle : handles) {
        if (handle.cancel()) wins.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wins.load(), kJobs);  // one winning cancel per job
  EXPECT_EQ(engine.jobs_cancelled(), kJobs);
  // The drain path must not re-count jobs cancelled between pop and
  // start (the orphan-drain regression).
  engine.drain();
  EXPECT_EQ(engine.jobs_cancelled(), kJobs);
  EXPECT_EQ(engine.jobs_completed(), 0u);
  for (JobHandle& handle : handles) {
    EXPECT_EQ(handle.status(), JobStatus::kCancelled);
    EXPECT_FALSE(handle.cancel());  // terminal: no further winners
  }
}

TEST(EngineCancelTest, CancellationStormKeepsExactCensus) {
  // Cancel everything while four dispatchers are mid-drain: every job
  // ends terminal, and submitted == completed + cancelled exactly.
  Engine engine(fast_config(/*dispatch_threads=*/4));
  constexpr std::size_t kJobs = 64;
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(engine.submit(PlanJob{}));
  }
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 3; ++t) {
    cancellers.emplace_back([&] {
      for (JobHandle& handle : handles) handle.cancel();
    });
  }
  for (std::thread& thread : cancellers) thread.join();
  engine.drain();
  for (JobHandle& handle : handles) {
    const JobStatus status = handle.wait().status;
    EXPECT_TRUE(status == JobStatus::kOk || status == JobStatus::kCancelled)
        << to_string(status);
  }
  EXPECT_EQ(engine.jobs_submitted(), kJobs);
  EXPECT_EQ(engine.jobs_completed() + engine.jobs_cancelled(), kJobs);
}

// ------------------------------------------------------ starvation aging

TEST(EngineQueueTest, AgingBypassesCostOrderAfterLimit) {
  // A heavy job that has waited past starvation_limit_ms runs before a
  // cheaper later submission (deterministic in manual-drain mode).
  EngineConfig config = fast_config(/*dispatch_threads=*/0);
  config.starvation_limit_ms = 5.0;
  Engine engine(config);
  SimulateJob heavy;
  heavy.atoms = 64;
  JobHandle h_heavy = engine.submit(heavy);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  JobHandle h_cheap = engine.submit(PlanJob{});
  engine.drain();
  ASSERT_TRUE(h_heavy.wait().ok());
  ASSERT_TRUE(h_cheap.wait().ok());
  EXPECT_LT(h_heavy.wait().engine.exec_seq, h_cheap.wait().engine.exec_seq);

  // Control: with a generous limit the cheap job jumps ahead.
  EngineConfig fifo_free = fast_config(/*dispatch_threads=*/0);
  fifo_free.starvation_limit_ms = 60000.0;
  Engine control(fifo_free);
  JobHandle c_heavy = control.submit(heavy);
  JobHandle c_cheap = control.submit(PlanJob{});
  control.drain();
  EXPECT_LT(c_cheap.wait().engine.exec_seq,
            c_heavy.wait().engine.exec_seq);
}

TEST(EngineQueueTest, AgingBoundsStarvationUnderAdversarialMix) {
  // Adversarial mixed traffic: expensive jobs interleaved with floods of
  // cheap ones that pure cost order would always favour. The escape
  // hatch must bound starvation — an aged heavy job runs before EVERY
  // cheaper later arrival, while a fresh heavy job still yields to all
  // of them. Manual drain keeps the order deterministic, so the census
  // is exact, not statistical. The limit must dwarf the full drain time
  // (~1 s worst case on a loaded single core): if the fresh heavy job
  // could age while the floods drain, it would legally jump the late
  // flood and the exact census would flake.
  EngineConfig config = fast_config(/*dispatch_threads=*/0);
  config.starvation_limit_ms = 8000.0;
  Engine engine(config);

  SimulateJob heavy;
  heavy.atoms = 64;

  // Phase 1: a heavy job, then a flood of cheap ones.
  JobHandle aged_heavy = engine.submit(heavy);
  std::vector<JobHandle> early_cheap;
  for (int i = 0; i < 6; ++i) early_cheap.push_back(engine.submit(PlanJob{}));

  // Let the heavy job (and the early flood) age past the limit, then
  // pile on a second heavy job and a fresh flood.
  std::this_thread::sleep_for(std::chrono::milliseconds(8200));
  JobHandle fresh_heavy = engine.submit(heavy);
  std::vector<JobHandle> late_cheap;
  for (int i = 0; i < 6; ++i) late_cheap.push_back(engine.submit(PlanJob{}));

  engine.drain();
  ASSERT_TRUE(aged_heavy.wait().ok());
  ASSERT_TRUE(fresh_heavy.wait().ok());

  // Exact census of the execution order:
  //  * the aged heavy job ran FIRST — zero cheap jobs overtook it;
  EXPECT_EQ(aged_heavy.wait().engine.exec_seq, 1u);
  //  * the fresh heavy job ran LAST — all 12 cheap jobs (6 of them
  //    submitted later) overtook it, cost order intact for the young;
  EXPECT_EQ(fresh_heavy.wait().engine.exec_seq, 14u);
  //  * equal-cost cheap jobs kept FIFO order among themselves, early
  //    flood before late flood.
  std::vector<std::uint64_t> cheap_seq;
  for (JobHandle& handle : early_cheap) {
    ASSERT_TRUE(handle.wait().ok());
    cheap_seq.push_back(handle.wait().engine.exec_seq);
  }
  for (JobHandle& handle : late_cheap) {
    ASSERT_TRUE(handle.wait().ok());
    cheap_seq.push_back(handle.wait().engine.exec_seq);
  }
  for (std::size_t i = 0; i < cheap_seq.size(); ++i) {
    EXPECT_EQ(cheap_seq[i], i + 2) << "cheap job " << i;
  }
  EXPECT_EQ(engine.jobs_completed(), 14u);
}

// ------------------------------------------------- malformed-request fuzz

TEST(EngineFuzzTest, MalformedRequestsNeverEscapeClassification) {
  // Deterministic PRNG sweep over adversarial request fields: every run
  // returns a classified result (never throws), invalid requests carry
  // the validator's findings, and every result JSON round-trips.
  Prng prng(0xfeedfacecafe1234ull);
  Engine engine(fast_config());
  const double weird[] = {-1.0,
                          0.0,
                          0.5,
                          2.0,
                          1e308,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
  const std::size_t atom_choices[] = {0, 1, 3, 7, 8, 12, 16};
  int invalid_seen = 0;
  for (int i = 0; i < 120; ++i) {
    JobRequest request;
    switch (prng.next_below(3)) {
      case 0: {
        ScfJob job;
        job.atoms = atom_choices[prng.next_below(std::size(atom_choices))];
        job.ecut_ry = weird[prng.next_below(std::size(weird))];
        job.scf.mixing = weird[prng.next_below(std::size(weird))];
        job.scf.tolerance = weird[prng.next_below(std::size(weird))];
        job.scf.max_iterations =
            static_cast<unsigned>(prng.next_below(3));
        job.deadline_ms = weird[prng.next_below(std::size(weird))];
        request = job;
        break;
      }
      case 1: {
        BandStructureJob job;
        job.atoms = atom_choices[prng.next_below(std::size(atom_choices))];
        job.ecut_ry = weird[prng.next_below(std::size(weird))];
        job.segments = static_cast<unsigned>(prng.next_below(3));
        job.bands = prng.next_below(4);
        job.valence_bands = prng.next_below(6);
        job.mp_grid[0] = static_cast<unsigned>(prng.next_below(1u << 23));
        job.mp_grid[1] = static_cast<unsigned>(prng.next_below(1u << 23));
        job.mp_grid[2] = static_cast<unsigned>(prng.next_below(1u << 23));
        job.sampling = prng.next_bool(0.5)
                           ? BandStructureJob::Sampling::kPath
                           : BandStructureJob::Sampling::kMonkhorstPack;
        job.deadline_ms = weird[prng.next_below(std::size(weird))];
        request = job;
        break;
      }
      default: {
        SimulateJob job;
        job.atoms = atom_choices[prng.next_below(std::size(atom_choices))];
        job.deadline_ms = weird[prng.next_below(std::size(weird))];
        request = job;
        break;
      }
    }
    const std::vector<std::string> findings = validate(request);
    JobResult result;
    ASSERT_NO_THROW(result = engine.run(request)) << "iteration " << i;
    if (!findings.empty()) {
      ++invalid_seen;
      EXPECT_EQ(result.status, JobStatus::kInvalid);
      EXPECT_EQ(result.error, ErrorKind::kInvalidRequest);
      EXPECT_EQ(result.error_details, findings);
    }
    const std::string dumped = result.to_json().dump();
    const JobResult rebuilt = JobResult::from_json(Json::parse(dumped));
    EXPECT_EQ(rebuilt.to_json().dump(), dumped) << "iteration " << i;
  }
  EXPECT_GT(invalid_seen, 50);  // the sweep actually exercises rejection
}

TEST(EngineFuzzTest, FaultSpecParserNeverCrashes) {
  // Random concatenations of grammar fragments either parse or throw
  // NdftError — nothing else escapes.
  Prng prng(0x5eedbeef0badull);
  const char* fragments[] = {"seed=",   "scf.alloc",  "engine.alloc",
                             "=",       "0.5",        "1.0",
                             "@",       "3",          ";",
                             ",",       "*",          " ",
                             "nan",     "-1",         "bogus.site",
                             "1e309",   "@@",         "=="};
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const std::size_t parts = 1 + prng.next_below(8);
    for (std::size_t p = 0; p < parts; ++p) {
      text += fragments[prng.next_below(std::size(fragments))];
    }
    try {
      const FaultSpec spec = FaultSpec::parse(text);
      (void)spec;
    } catch (const NdftError&) {
      // expected for malformed text
    }
  }
}

}  // namespace
}  // namespace ndft::api
