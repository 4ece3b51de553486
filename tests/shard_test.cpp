// The scatter/gather layer (ctest label: shard, RUN_SERIAL).
//
// Pins the distributed front door's contract: a band-structure job
// sharded across 1/2/4 backends — in-process Engines and loopback HTTP
// services alike — produces a payload BITWISE identical to a single
// Engine::run, including with a faulted backend rerouting mid-job and
// with every backend down (local-fallback degradation). Also covers
// malformed sub-results (a structured failure, never a throw or a silent
// merge), batch scatter, cancellation/deadlines at the shard layer,
// upfront validation, the explicit k-point sampling the sub-jobs ride
// on, and a dense grid's bitwise payload and 4-backend speedup with the
// kernel pool pinned to one thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/shard.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

namespace ndft::api {
namespace {

EngineConfig fast_config() {
  EngineConfig config;
  config.dispatch_threads = 0;
  config.system.sampled_ops_per_kernel = 20000;
  config.system.min_ops_per_core = 200;
  return config;
}

/// The canonical splittable job of these tests: a Monkhorst-Pack band
/// sweep on the primitive cell (3x3x3 folds to 14 k-points).
BandStructureJob mp_band_job() {
  BandStructureJob job;
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 3;
  job.bands = 6;
  job.valence_bands = 4;
  return job;
}

/// The reference: what one plain Engine produces for `request`.
std::string reference_payload(const JobRequest& request) {
  Engine engine(fast_config());
  const JobResult result = engine.run(request);
  EXPECT_TRUE(result.ok()) << result.error_message;
  return result.to_json().at("payload").dump();
}

/// A sharder over `n` fresh in-process engines. Engines are owned by the
/// returned pair's second member and must outlive the sharder.
struct LocalCluster {
  std::vector<std::unique_ptr<Engine>> engines;
  std::unique_ptr<ShardedEngine> sharded;

  explicit LocalCluster(std::size_t n, ShardedEngineConfig config = {}) {
    std::vector<std::shared_ptr<Backend>> backends;
    for (std::size_t i = 0; i < n; ++i) {
      engines.push_back(std::make_unique<Engine>(fast_config()));
      backends.push_back(std::make_shared<LocalBackend>(
          *engines.back(), "local-" + std::to_string(i)));
    }
    config.local = fast_config();
    sharded = std::make_unique<ShardedEngine>(std::move(backends), config);
  }
};

/// Backend that fails its first `failures` execute() calls with an
/// NdftError (a dead/unreachable engine), then recovers.
class FlakyBackend final : public Backend {
 public:
  FlakyBackend(std::shared_ptr<Backend> inner, int failures)
      : inner_(std::move(inner)), failures_(failures) {}
  const std::string& name() const noexcept override { return inner_->name(); }
  JobResult execute(const JobRequest& request) override {
    if (failures_.fetch_sub(1) > 0) {
      throw NdftError("injected backend failure");
    }
    return inner_->execute(request);
  }
  int remaining() const noexcept { return failures_.load(); }

 private:
  std::shared_ptr<Backend> inner_;
  std::atomic<int> failures_;
};

// -------------------------------------------------- in-process scatter

TEST(ShardedEngineTest, BandJobMatchesSingleEngineBitwiseFor1_2_4Backends) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    LocalCluster cluster(n);
    const JobResult result = cluster.sharded->run(request);
    ASSERT_TRUE(result.ok()) << result.error_message;
    EXPECT_EQ(result.to_json().at("payload").dump(), expected)
        << n << " backends";
    ASSERT_TRUE(result.shard.has_value());
    EXPECT_EQ(result.shard->backends, n);
    EXPECT_GT(result.shard->shards, 1u);
    EXPECT_EQ(result.shard->failed_backends, 0u);
    ASSERT_TRUE(result.band_structure.has_value());
    EXPECT_EQ(result.band_structure->sampling, "monkhorst_pack");
    EXPECT_EQ(result.band_structure->path.size(), 14u);  // 27 folded
  }
}

TEST(ShardedEngineTest, PathSamplingShardsBitwiseToo) {
  BandStructureJob job;
  job.segments = 4;  // 17 path points
  job.bands = 6;
  const JobRequest request = job;
  const std::string expected = reference_payload(request);
  LocalCluster cluster(3);
  const JobResult result = cluster.sharded->run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
  ASSERT_TRUE(result.band_structure.has_value());
  EXPECT_EQ(result.band_structure->sampling, "path");
  // The direct gap comes from the labelled Gamma point, which sits in
  // the middle of some shard: the merge must still find it.
  EXPECT_GT(result.band_structure->direct_gap_gamma_ev, 0.0);
}

TEST(ShardedEngineTest, ExplicitSamplingRunsVerbatimThroughEngine) {
  // The sub-job wire form is a first-class sampling: an explicit list
  // solves exactly those points, no folding, weights flowing through.
  BandStructureJob job;
  job.sampling = BandStructureJob::Sampling::kExplicit;
  BandStructureJob::KPointSpec gamma;
  gamma.label = "Gamma";
  gamma.weight = 0.25;
  job.kpoints.push_back(gamma);
  BandStructureJob::KPointSpec other;
  other.k[0] = 0.2;
  other.weight = 0.75;
  job.kpoints.push_back(other);
  job.bands = 6;
  Engine engine(fast_config());
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.band_structure.has_value());
  EXPECT_EQ(result.band_structure->sampling, "explicit");
  ASSERT_EQ(result.band_structure->path.size(), 2u);
  EXPECT_EQ(result.band_structure->path[0].label, "Gamma");
  EXPECT_EQ(result.band_structure->path[0].weight, 0.25);
  EXPECT_EQ(result.band_structure->weight_sum, 1.0);
  EXPECT_GT(result.band_structure->direct_gap_gamma_ev, 0.0);
}

TEST(ShardedEngineTest, ExplicitSamplingValidates) {
  Engine engine(fast_config());
  BandStructureJob job;
  job.sampling = BandStructureJob::Sampling::kExplicit;
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);  // empty list
  BandStructureJob::KPointSpec bad;
  bad.weight = -1.0;
  job.kpoints.push_back(bad);
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);
  job.kpoints[0].weight = 1.0;
  job.kpoints[0].k[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.run(job).status, JobStatus::kInvalid);
  job.kpoints[0].k[1] = 0.0;
  EXPECT_TRUE(engine.run(job).ok());
}

// --------------------------------------------------- faults and reroute

TEST(ShardedEngineTest, FaultedBackendReroutesAndPayloadStaysBitwise) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);

  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::shared_ptr<Backend>> backends;
  for (int i = 0; i < 2; ++i) {
    engines.push_back(std::make_unique<Engine>(fast_config()));
  }
  // Backend 0 is permanently down (every attempt throws); backend 1
  // absorbs its shards.
  backends.push_back(std::make_shared<FlakyBackend>(
      std::make_shared<LocalBackend>(*engines[0], "down"), 1 << 20));
  backends.push_back(
      std::make_shared<LocalBackend>(*engines[1], "healthy"));
  ShardedEngineConfig config;
  config.backend_attempts = 2;
  config.retry_backoff_ms = 0.1;
  config.local = fast_config();
  ShardedEngine sharded(std::move(backends), config);

  const JobResult result = sharded.run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_EQ(result.shard->failed_backends, 1u);
  EXPECT_GE(result.shard->rerouted, 1u);
  EXPECT_TRUE(result.degraded.empty());  // rerouting is not degradation
  EXPECT_GE(sharded.shards_rerouted(), 1u);
  EXPECT_EQ(sharded.backends_failed(), 1u);
}

/// Backend that counts the shards it has finished.
class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(std::shared_ptr<Backend> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const noexcept override { return inner_->name(); }
  JobResult execute(const JobRequest& request) override {
    JobResult result = inner_->execute(request);
    finished_.fetch_add(1);
    return result;
  }
  int finished() const noexcept { return finished_.load(); }

 private:
  std::shared_ptr<Backend> inner_;
  std::atomic<int> finished_{0};
};

/// Backend that holds the one shard it is given until `partner` has
/// finished `partner_shards` others (the rest of the queue), then fails.
class LateFailingBackend final : public Backend {
 public:
  LateFailingBackend(const CountingBackend& partner, int partner_shards)
      : partner_(partner), partner_shards_(partner_shards) {}
  const std::string& name() const noexcept override { return name_; }
  JobResult execute(const JobRequest&) override {
    calls_.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (partner_.finished() < partner_shards_ &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Give the partner's worker time to find the queue empty.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw NdftError("backend failed after the queue drained");
  }
  int calls() const noexcept { return calls_.load(); }

 private:
  const CountingBackend& partner_;
  const int partner_shards_;
  const std::string name_ = "late-failing";
  std::atomic<int> calls_{0};
};

TEST(ShardedEngineTest, LateBackendFailureReroutesToADrainedSurvivor) {
  // The healthy backend empties the queue while the other backend still
  // holds a shard; when that backend then fails, the re-queued shard must
  // go to the healthy backend, not fail the job (no local fallback here).
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);

  Engine engine(fast_config());
  const auto healthy = std::make_shared<CountingBackend>(
      std::make_shared<LocalBackend>(engine, "healthy"));
  // 2 backends x 2 shards each: 4 shards, so the healthy backend finishes
  // the other 3 before the late one fails.
  const auto late = std::make_shared<LateFailingBackend>(*healthy, 3);
  ShardedEngineConfig config;
  config.shards_per_backend = 2;
  config.backend_attempts = 1;
  config.retry_backoff_ms = 0.0;
  config.allow_local_fallback = false;
  ShardedEngine sharded({healthy, late}, config);

  const JobResult result = sharded.run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
  EXPECT_TRUE(result.degraded.empty());
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_EQ(result.shard->shards, 4u);
  EXPECT_EQ(result.shard->failed_backends, 1u);
  EXPECT_EQ(result.shard->rerouted, 1u);
  EXPECT_EQ(late->calls(), 1);
  EXPECT_EQ(healthy->finished(), 4);
}

TEST(ShardedEngineTest, AllBackendsDownDegradesToLocalFallback) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);

  std::vector<std::shared_ptr<Backend>> backends;
  Engine unused(fast_config());
  for (int i = 0; i < 2; ++i) {
    backends.push_back(std::make_shared<FlakyBackend>(
        std::make_shared<LocalBackend>(unused, "dead"), 1 << 20));
  }
  ShardedEngineConfig config;
  config.backend_attempts = 1;
  config.retry_backoff_ms = 0.0;
  config.local = fast_config();
  ShardedEngine sharded(std::move(backends), config);

  const JobResult result = sharded.run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
  EXPECT_EQ(unused.jobs_completed(), 0u);  // nothing reached the backends
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_EQ(result.shard->failed_backends, 2u);
  // Every shard ran locally, each tagged in the merged degradation list.
  ASSERT_FALSE(result.degraded.empty());
  for (const std::string& tag : result.degraded) {
    EXPECT_EQ(tag, "shard:local_fallback");
  }
  EXPECT_EQ(sharded.local_fallback_shards(), result.shard->shards);
}

TEST(ShardedEngineTest, AllBackendsDownWithoutFallbackFails) {
  Engine unused(fast_config());
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(std::make_shared<FlakyBackend>(
      std::make_shared<LocalBackend>(unused, "dead"), 1 << 20));
  ShardedEngineConfig config;
  config.backend_attempts = 1;
  config.retry_backoff_ms = 0.0;
  config.allow_local_fallback = false;
  ShardedEngine sharded(std::move(backends), config);
  const JobResult result = sharded.run(mp_band_job());
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kInternal);
}

// ------------------------------------------------ malformed sub-results

/// Backend whose sub-jobs run on a real engine and come back Ok but
/// mangled by `corrupt`: shapes a remote server's reply can take, since
/// HttpBackend's decoder checks member types, not payload shapes.
class CorruptingBackend final : public Backend {
 public:
  CorruptingBackend(Engine& engine, std::function<void(JobResult&)> corrupt)
      : inner_(engine, "corrupting"), corrupt_(std::move(corrupt)) {}
  const std::string& name() const noexcept override { return inner_.name(); }
  JobResult execute(const JobRequest& request) override {
    JobResult result = inner_.execute(request);
    if (result.ok()) corrupt_(result);
    return result;
  }

 private:
  LocalBackend inner_;
  std::function<void(JobResult&)> corrupt_;
};

/// Shards mp_band_job() over one CorruptingBackend; the gather must turn
/// the malformed parts into a structured failure whose message says
/// `why`, never throw or merge.
void expect_gather_refuses(std::function<void(JobResult&)> corrupt,
                           const std::string& why) {
  Engine engine(fast_config());
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(
      std::make_shared<CorruptingBackend>(engine, std::move(corrupt)));
  ShardedEngineConfig config;
  config.local = fast_config();
  ShardedEngine sharded(std::move(backends), config);
  JobResult result;
  ASSERT_NO_THROW(result = sharded.run(mp_band_job()));
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kInternal);
  EXPECT_NE(result.error_message.find(why), std::string::npos)
      << result.error_message;
  EXPECT_FALSE(result.band_structure.has_value());
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_GT(result.shard->shards, 1u);
}

TEST(ShardedEngineTest, OkSubResultWithoutBandPayloadFails) {
  expect_gather_refuses(
      [](JobResult& result) { result.band_structure.reset(); },
      "no band payload");
}

TEST(ShardedEngineTest, SubResultWithWrongPointCountFails) {
  expect_gather_refuses(
      [](JobResult& result) { result.band_structure->path.pop_back(); },
      "k-points for the");
}

TEST(ShardedEngineTest, SubResultPointWithoutConductionBandFails) {
  // valence_bands is 4: a point with 4 energies has no conduction band,
  // and the summary would read past its end.
  expect_gather_refuses(
      [](JobResult& result) {
        result.band_structure->path.back().energies_ha.resize(4);
      },
      "conduction band");
}

// ------------------------------------------- cancellation and deadlines

TEST(ShardedEngineTest, PreCancelledTokenYieldsCancelled) {
  LocalCluster cluster(2);
  const CancelToken cancel = CancelToken::create();
  cancel.request_cancel();
  const JobResult result = cluster.sharded->run(mp_band_job(), cancel);
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.error, ErrorKind::kCancelled);
}

TEST(ShardedEngineTest, TinyDeadlineSurfacesAsDeadlineExceeded) {
  LocalCluster cluster(2);
  BandStructureJob job = mp_band_job();
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 8;  // plenty of work
  job.deadline_ms = 0.001;
  const JobResult result = cluster.sharded->run(job);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(result.error, ErrorKind::kDeadlineExceeded);
}

TEST(ShardedEngineTest, InvalidRequestRejectedBeforeAnyBackend) {
  LocalCluster cluster(2);
  BandStructureJob job = mp_band_job();
  job.valence_bands = 0;
  const JobResult result = cluster.sharded->run(job);
  EXPECT_EQ(result.status, JobStatus::kInvalid);
  EXPECT_EQ(result.error, ErrorKind::kInvalidRequest);
  EXPECT_FALSE(result.error_details.empty());
  for (const auto& engine : cluster.engines) {
    EXPECT_EQ(engine->jobs_submitted(), 0u);
  }
}

// ---------------------------------------------------------------- batch

TEST(ShardedEngineTest, RunBatchMatchesPerMemberEngineRuns) {
  std::vector<JobRequest> requests;
  ScfJob scf;
  scf.atoms = 8;
  scf.ecut_ry = 3.0;
  scf.scf.max_iterations = 4;
  requests.emplace_back(scf);
  requests.emplace_back(PlanJob{});
  SimulateJob simulate;
  simulate.atoms = 16;
  requests.emplace_back(simulate);
  requests.emplace_back(mp_band_job());

  std::vector<std::string> expected;
  for (const JobRequest& request : requests) {
    expected.push_back(reference_payload(request));
  }

  LocalCluster cluster(2);
  const std::vector<JobResult> results = cluster.sharded->run_batch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error_message;
    EXPECT_EQ(results[i].to_json().at("payload").dump(), expected[i])
        << "member " << i;
    ASSERT_TRUE(results[i].shard.has_value());
    EXPECT_EQ(results[i].shard->backends, 2u);
    EXPECT_EQ(results[i].shard->shards, requests.size());
  }
}

TEST(ShardedEngineTest, NonSplittableJobRunsWholeOnOneBackend) {
  LocalCluster cluster(3);
  const JobResult result = cluster.sharded->run(PlanJob{});
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_EQ(result.shard->shards, 1u);
  // A traced band job must not shard either: the trace needs whole-run
  // program order.
  BandStructureJob traced = mp_band_job();
  traced.record_trace = true;
  const JobResult traced_result = cluster.sharded->run(traced);
  ASSERT_TRUE(traced_result.ok()) << traced_result.error_message;
  ASSERT_TRUE(traced_result.trace.has_value());
  ASSERT_TRUE(traced_result.shard.has_value());
  EXPECT_EQ(traced_result.shard->shards, 1u);
}

// -------------------------------------------------------------- scaling

/// Pins the process-wide kernel pool to one thread for a scope: each
/// backend's parallel_for then runs inline on its shard worker, so N
/// backends are N parallel eigensolve streams and the backend count is
/// the only source of parallelism.
class PinnedPool {
 public:
  PinnedPool() : saved_(ThreadPool::instance().threads()) {
    ThreadPool::instance().resize(1);
  }
  ~PinnedPool() { ThreadPool::instance().resize(saved_); }
  PinnedPool(const PinnedPool&) = delete;
  PinnedPool& operator=(const PinnedPool&) = delete;

 private:
  std::size_t saved_;
};

TEST(ShardedEngineScalingTest, DenseGridStaysBitwiseAndFourBackendsReach1_7x) {
  // A 6x6x6 grid (108 folded k-points) on a denser basis, so eigensolves
  // dominate the scatter and the gather.
  BandStructureJob job = mp_band_job();
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 6;
  job.ecut_ry = 12.0;
  job.bands = 8;
  const JobRequest request = job;
  const PinnedPool pinned;
  const std::string expected = reference_payload(request);

  const std::size_t backends[] = {1, 2, 4};
  std::vector<std::unique_ptr<LocalCluster>> tiers;
  for (const std::size_t n : backends) {
    tiers.push_back(std::make_unique<LocalCluster>(n));
    (void)tiers.back()->sharded->run(request);  // warm every backend
  }

  // Wall-clock speedup needs a core under each shard worker: with fewer
  // than 4 hardware threads the 4-backend tier time-slices, and the gate
  // would measure machine shape, not sharding. On a shared machine one
  // preempted run can miss the gate, so a round that misses it re-times
  // every tier, up to three rounds, and each tier keeps its best.
  const unsigned hardware = std::thread::hardware_concurrency();
  using Clock = std::chrono::steady_clock;
  std::vector<double> best_s(tiers.size(),
                             std::numeric_limits<double>::infinity());
  const auto speedup = [&] { return best_s.front() / best_s.back(); };
  for (int round = 0; round < 3; ++round) {
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const Clock::time_point start = Clock::now();
      const JobResult result = tiers[t]->sharded->run(request);
      best_s[t] = std::min(
          best_s[t],
          std::chrono::duration<double>(Clock::now() - start).count());
      ASSERT_TRUE(result.ok()) << result.error_message;
      EXPECT_EQ(result.to_json().at("payload").dump(), expected)
          << backends[t] << " backends";
    }
    if (hardware < 4 || speedup() >= 1.7) break;
  }
  if (hardware < 4) {
    GTEST_SKIP() << "speedup gate needs 4 hardware threads, have "
                 << hardware;
  }
  EXPECT_GE(speedup(), 1.7) << "best of 3: 1 backend " << best_s.front()
                            << " s, 4 backends " << best_s.back() << " s";
}

// ------------------------------------------------------- loopback HTTP

/// Engine + Service + HttpServer on an ephemeral loopback port.
struct TestServer {
  Engine engine;
  net::Service service;
  net::HttpServer server;

  TestServer()
      : engine(fast_config_async()),
        service(engine, quiet_service()),
        server(net::ServerConfig(), [this](const net::HttpRequest& request) {
          return service.handle(request);
        }) {
    server.start();
  }

  static EngineConfig fast_config_async() {
    EngineConfig config = fast_config();
    config.dispatch_threads = 2;  // remote jobs drain asynchronously
    return config;
  }
  static net::ServiceConfig quiet_service() {
    net::ServiceConfig config;
    config.log = nullptr;
    return config;
  }

  std::shared_ptr<HttpBackend> backend() {
    HttpBackend::Config config;
    config.host = "127.0.0.1";
    config.port = server.port();
    config.poll_wait_ms = 2000.0;
    return std::make_shared<HttpBackend>(config);
  }
};

TEST(ShardedEngineHttpTest, BandJobOverLoopbackMatchesBitwiseFor1_2Backends) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    std::vector<std::unique_ptr<TestServer>> servers;
    std::vector<std::shared_ptr<Backend>> backends;
    for (std::size_t i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<TestServer>());
      backends.push_back(servers.back()->backend());
    }
    ShardedEngineConfig config;
    config.local = fast_config();
    ShardedEngine sharded(std::move(backends), config);
    const JobResult result = sharded.run(request);
    ASSERT_TRUE(result.ok()) << result.error_message;
    EXPECT_EQ(result.to_json().at("payload").dump(), expected)
        << n << " HTTP backends";
    ASSERT_TRUE(result.shard.has_value());
    EXPECT_EQ(result.shard->backends, n);
    EXPECT_GT(result.shard->shards, 1u);
    for (const auto& server : servers) {
      EXPECT_GT(server->engine.jobs_completed(), 0u);
    }
  }
}

TEST(ShardedEngineHttpTest, MixedHttpAndLocalBackendsStayBitwise) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);
  TestServer server;
  Engine local(fast_config());
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(server.backend());
  backends.push_back(std::make_shared<LocalBackend>(local, "local"));
  ShardedEngineConfig config;
  config.local = fast_config();
  ShardedEngine sharded(std::move(backends), config);
  const JobResult result = sharded.run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
}

TEST(ShardedEngineHttpTest, DeadHttpBackendReroutesToSurvivor) {
  const JobRequest request = mp_band_job();
  const std::string expected = reference_payload(request);
  TestServer healthy;
  // A port with no listener: every execute() throws on connect.
  HttpBackend::Config dead_config;
  dead_config.host = "127.0.0.1";
  dead_config.port = 1;  // reserved port, nothing listens
  dead_config.timeout_ms = 500.0;
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(std::make_shared<HttpBackend>(dead_config));
  backends.push_back(healthy.backend());
  ShardedEngineConfig config;
  config.backend_attempts = 1;
  config.local = fast_config();
  ShardedEngine sharded(std::move(backends), config);
  const JobResult result = sharded.run(request);
  ASSERT_TRUE(result.ok()) << result.error_message;
  EXPECT_EQ(result.to_json().at("payload").dump(), expected);
  ASSERT_TRUE(result.shard.has_value());
  EXPECT_EQ(result.shard->failed_backends, 1u);
  EXPECT_GE(result.shard->rerouted, 1u);
}

TEST(ShardedEngineHttpTest, InvalidSubRequestComesBackStructured) {
  // A 400 from the service must surface as a structured kInvalid result
  // (the request is at fault — rerouting would be useless), not as a
  // backend failure.
  TestServer server;
  auto backend = server.backend();
  BandStructureJob job = mp_band_job();
  job.valence_bands = 0;
  const JobResult result = backend->execute(job);
  EXPECT_EQ(result.status, JobStatus::kInvalid);
  EXPECT_EQ(result.error, ErrorKind::kInvalidRequest);
  EXPECT_FALSE(result.error_details.empty());
}

}  // namespace
}  // namespace ndft::api
