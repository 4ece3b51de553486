#pragma once
// Scatter/gather execution across N engines: the distributed front door.
//
// A ShardedEngine splits one BandStructureJob into per-k sub-jobs (and a
// batch of requests into per-member sub-jobs), fans them out across its
// backends — in-process Engines via LocalBackend, remote ndft_serve
// instances via HttpBackend speaking the PR 7 wire protocol
// (ndft.job_request.v1 in, long-polled ndft.job_result.v1 out) — and
// merges the partial payloads back into one JobResult.
//
// Determinism contract: the merged payload is bitwise identical to a
// single Engine::run of the same request, for any backend count and any
// completion order. Two properties carry it:
//   * scatter is canonical — the k-set (Monkhorst-Pack grids folded to
//     the time-reversal half via band_job_kpoints, exactly as the Engine
//     itself folds) is chunked contiguously in grid order, and gathered
//     results keep that order regardless of which backend finished when;
//   * the gap summary is recomputed ONCE over the concatenated points by
//     summarize_bands — the dft::find_gap call the Engine's band
//     executor makes (weighted band-energy sums first, a single final
//     normalization by the total weight_sum) — never by averaging
//     per-shard summaries, whose per-run normalization would
//     double-divide and break bitwise equality.
//
// Failure model: a backend whose execute() throws NdftError is retried
// with deterministic backoff, then marked down for the run; its shards
// re-queue and the surviving workers absorb them. When every backend is
// down, the remaining shards degrade to local execution on a private
// fallback engine (tag "shard:local_fallback"). Cancellation and
// deadlines are observed between shard dispatches and propagate into
// sub-job deadline budgets. An Ok sub-result that does not fit its
// sub-job (no band payload, a different k-point count, a point without a
// conduction band) fails the job as kFailed instead of being merged.
// Fan-out accounting rides JobResult::shard.
//
// See docs/SHARDING.md for topology and semantics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/job.hpp"
#include "api/result.hpp"
#include "common/cancel.hpp"

namespace ndft::net {
class HttpClient;
}

namespace ndft::api {

/// One execution backend of a ShardedEngine. execute() runs a request to
/// a terminal result on the calling thread; it throws NdftError when the
/// backend itself fails (transport error, dead engine) — the sharder then
/// retries/reroutes — while request-level failures come back inside the
/// JobResult. A ShardedEngine calls execute() from at most one thread at
/// a time per backend instance.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual const std::string& name() const noexcept = 0;
  virtual JobResult execute(const JobRequest& request) = 0;
};

/// Backend over a borrowed in-process Engine (must outlive the backend).
class LocalBackend final : public Backend {
 public:
  explicit LocalBackend(Engine& engine, std::string name = "local");
  const std::string& name() const noexcept override { return name_; }
  JobResult execute(const JobRequest& request) override;

 private:
  Engine& engine_;
  std::string name_;
};

/// Backend over a remote ndft_serve instance: POST /v1/jobs with a
/// long-poll, then GET-poll the job to its terminal result. A 4xx on
/// submission becomes a structured failed JobResult (the request itself
/// is at fault); transport errors and backend saturation (429/5xx) throw
/// NdftError so the sharder can reroute.
class HttpBackend final : public Backend {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string bearer;            ///< "" = no Authorization header
    double timeout_ms = 30000.0;   ///< per HTTP round trip
    double poll_wait_ms = 2000.0;  ///< long-poll slice per request
  };

  explicit HttpBackend(Config config);
  ~HttpBackend() override;
  const std::string& name() const noexcept override { return name_; }
  JobResult execute(const JobRequest& request) override;

 private:
  Config config_;
  std::string name_;
  std::mutex mutex_;  // HttpClient is not thread-safe; serialize execute()
  std::unique_ptr<net::HttpClient> client_;
};

/// ShardedEngine construction knobs.
struct ShardedEngineConfig {
  /// Target sub-jobs per backend when splitting one job: oversubscription
  /// smooths uneven per-shard times and lets survivors absorb a failed
  /// backend's shards in small pieces. 1 = one chunk per backend.
  std::size_t shards_per_backend = 4;
  /// execute() attempts per backend before it is marked down for the run
  /// (transient transport blips retry in place; composes with the
  /// Engine's own internal retry of transient faults). 1 disables.
  unsigned backend_attempts = 2;
  /// Deterministic pause before an in-place backend retry.
  double retry_backoff_ms = 10.0;
  /// When every backend is down, run leftover shards on a private local
  /// fallback engine and tag the result "shard:local_fallback" instead
  /// of failing the job.
  bool allow_local_fallback = true;
  /// Config of the lazily created fallback engine (dispatch threads are
  /// forced to 0 — the fallback only ever services synchronous run()).
  EngineConfig local;
};

/// The distributed front door: same run()/run_batch() shape as Engine,
/// scatter/gather underneath. Thread-safe; backends are owned shared so
/// topologies can share engines between sharders.
class ShardedEngine {
 public:
  explicit ShardedEngine(std::vector<std::shared_ptr<Backend>> backends,
                         ShardedEngineConfig config = {});
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Validates and executes `request`, scattering splittable jobs
  /// (band-structure k-sets) across the backends. Non-splittable
  /// requests run whole on one backend. Never throws for request-level
  /// problems; all failure surfaces as JobResult status/error.
  JobResult run(const JobRequest& request);
  /// Same, observing an external cancel token between shard dispatches.
  JobResult run(const JobRequest& request, const CancelToken& cancel);

  /// Scatters independent requests across the backends, one sub-job per
  /// member, and gathers results in submission order. Each member's
  /// result is exactly what a single Engine::run would produce.
  std::vector<JobResult> run_batch(const std::vector<JobRequest>& requests);
  std::vector<JobResult> run_batch(const std::vector<JobRequest>& requests,
                                   const CancelToken& cancel);

  std::size_t backend_count() const noexcept { return backends_.size(); }

  // ---- lifetime counters (the /metrics-style view of the fan-out).
  std::uint64_t jobs_run() const noexcept { return jobs_run_; }
  std::uint64_t shards_executed() const noexcept { return shards_exec_; }
  std::uint64_t shards_rerouted() const noexcept { return rerouted_; }
  std::uint64_t backends_failed() const noexcept { return backends_failed_; }
  std::uint64_t local_fallback_shards() const noexcept {
    return local_fallback_;
  }

 private:
  struct ScatterOutcome;
  struct RunGuard;

  JobResult run_impl(const JobRequest& request, const RunGuard& guard);
  std::vector<JobResult> run_batch_impl(
      const std::vector<JobRequest>& requests, const RunGuard& guard);
  /// Fans `subs` out across the backends (one worker thread per backend,
  /// shared shard queue, reroute on backend loss), filling `outcome`.
  void execute_scatter(const std::vector<JobRequest>& subs,
                       const RunGuard& guard, ScatterOutcome& outcome);
  /// Runs one non-splittable request whole on some backend (round-robin
  /// with failover), with the same local fallback as scatter.
  JobResult execute_single(const JobRequest& request, const RunGuard& guard,
                           ShardInfo& info);
  Engine& fallback_engine();

  std::vector<std::shared_ptr<Backend>> backends_;
  ShardedEngineConfig config_;

  std::mutex fallback_mutex_;            // guards lazy creation
  std::unique_ptr<Engine> fallback_;     // created on first use

  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> next_backend_{0};  // round-robin cursor
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> shards_exec_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> backends_failed_{0};
  std::atomic<std::uint64_t> local_fallback_{0};
};

}  // namespace ndft::api
