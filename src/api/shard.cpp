#include "api/shard.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "api/request_json.hpp"
#include "common/enum_names.hpp"
#include "common/error.hpp"
#include "common/str_util.hpp"
#include "common/thread_pool.hpp"
#include "dft/lattice.hpp"
#include "net/client.hpp"

namespace ndft::api {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// HttpBackend gives up on a sub-job still pending after this long; the
/// job-level deadline usually bites first.
constexpr double kResultDeadlineMs = 600000.0;
/// Floor on k-points per shard; below it the per-shard basis rebuild
/// dominates the eigensolves it amortizes.
constexpr std::size_t kMinPointsPerShard = 2;

}  // namespace

// ------------------------------------------------------------ LocalBackend

LocalBackend::LocalBackend(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

JobResult LocalBackend::execute(const JobRequest& request) {
  return engine_.run(request);
}

// ------------------------------------------------------------- HttpBackend

HttpBackend::HttpBackend(Config config) : config_(std::move(config)) {
  name_ = strformat("http://%s:%u", config_.host.c_str(),
                    static_cast<unsigned>(config_.port));
  client_ = std::make_unique<net::HttpClient>(config_.host, config_.port,
                                              config_.timeout_ms);
  if (!config_.bearer.empty()) client_->set_bearer(config_.bearer);
}

HttpBackend::~HttpBackend() = default;

JobResult HttpBackend::execute(const JobRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string body = job_request_to_json(request).dump();
  const std::string wait = strformat("%g", config_.poll_wait_ms);
  const net::HttpResponse posted =
      client_->post("/v1/jobs?wait_ms=" + wait, body);
  if (posted.status == 400) {
    // The request itself is at fault: rerouting it to another backend
    // would only reproduce the rejection, so surface it as a structured
    // invalid result instead of throwing.
    JobResult result;
    result.status = JobStatus::kInvalid;
    result.error = ErrorKind::kInvalidRequest;
    result.engine.kind = job_kind(request);
    result.error_message = "request rejected by backend";
    try {
      const Json parsed = Json::parse(posted.body);
      if (parsed.has("error")) {
        const Json& error = parsed.at("error");
        if (error.has("message")) {
          result.error_message = error.at("message").as_string();
        }
        if (error.has("details")) {
          const Json& details = error.at("details");
          for (std::size_t i = 0; i < details.size(); ++i) {
            result.error_details.push_back(details[i].as_string());
          }
        }
      }
    } catch (const NdftError&) {
      // Keep the generic message; the 400 itself is the signal.
    }
    return result;
  }
  if (posted.status == 200) {
    // The long poll covered the whole run.
    return JobResult::from_json(Json::parse(posted.body));
  }
  if (posted.status != 202) {
    // 401/429/503/...: the backend (or our standing with it) is the
    // problem — throw so the sharder retries or reroutes.
    throw NdftError(strformat("backend %s refused job: HTTP %d",
                              name_.c_str(), posted.status));
  }
  const std::uint64_t id = Json::parse(posted.body).at("id").as_uint();
  // Poll to the terminal result. GET /v1/jobs/{id} answers 200 for BOTH
  // the {"id","status"} progress stub and the finished document — the
  // status code cannot distinguish them (mistaking the stub for a result
  // was exactly the long-poll bug this layer's tests pin down). The full
  // result alone carries the "schema" member, so gate on that.
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             kResultDeadlineMs));
  const std::string target =
      "/v1/jobs/" + std::to_string(id) + "?wait_ms=" + wait;
  for (;;) {
    const net::HttpResponse polled = client_->get(target);
    if (polled.status != 200) {
      throw NdftError(strformat("backend %s lost job %llu: HTTP %d",
                                name_.c_str(),
                                static_cast<unsigned long long>(id),
                                polled.status));
    }
    const Json parsed = Json::parse(polled.body);
    if (parsed.has("schema")) return JobResult::from_json(parsed);
    if (Clock::now() >= give_up) {
      throw NdftError(strformat(
          "backend %s: job %llu still pending after %g ms", name_.c_str(),
          static_cast<unsigned long long>(id), kResultDeadlineMs));
    }
  }
}

// ----------------------------------------------------------- ShardedEngine

/// Cancellation/deadline view of one top-level run: an optional external
/// token (cancel + its own deadline) combined with the request's
/// deadline_ms measured from execution start. Checked between shard
/// dispatches — a sub-job already running on a backend finishes on its
/// own (its deadline_ms budget bounds it).
struct ShardedEngine::RunGuard {
  const CancelToken* external = nullptr;
  Clock::time_point deadline{};
  bool has_deadline = false;

  bool cancelled() const {
    return external != nullptr && external->cancel_requested();
  }
  bool expired() const {
    if (external != nullptr && external->deadline_exceeded()) return true;
    return has_deadline && Clock::now() >= deadline;
  }
};

/// Gather state of one scatter: per-shard results (slots stay disengaged
/// until a worker stores into them) plus the fan-out tallies.
struct ShardedEngine::ScatterOutcome {
  std::vector<std::optional<JobResult>> results;
  std::uint64_t rerouted = 0;
  std::uint64_t failed_backends = 0;
  std::uint64_t fallback_shards = 0;
};

ShardedEngine::ShardedEngine(std::vector<std::shared_ptr<Backend>> backends,
                             ShardedEngineConfig config)
    : backends_(std::move(backends)), config_(std::move(config)) {
  NDFT_REQUIRE(!backends_.empty(),
               "a ShardedEngine needs at least one backend");
  for (const std::shared_ptr<Backend>& backend : backends_) {
    NDFT_REQUIRE(backend != nullptr, "null backend");
  }
  // The fallback engine only ever services synchronous run() calls from
  // the gather path; dispatcher threads would just idle.
  config_.local.dispatch_threads = 0;
}

ShardedEngine::~ShardedEngine() = default;

Engine& ShardedEngine::fallback_engine() {
  std::lock_guard<std::mutex> lock(fallback_mutex_);
  if (fallback_ == nullptr) {
    fallback_ = std::make_unique<Engine>(config_.local);
  }
  return *fallback_;
}

JobResult ShardedEngine::run(const JobRequest& request) {
  RunGuard guard;
  return run_impl(request, guard);
}

JobResult ShardedEngine::run(const JobRequest& request,
                             const CancelToken& cancel) {
  RunGuard guard;
  guard.external = &cancel;
  return run_impl(request, guard);
}

std::vector<JobResult> ShardedEngine::run_batch(
    const std::vector<JobRequest>& requests) {
  RunGuard guard;
  return run_batch_impl(requests, guard);
}

std::vector<JobResult> ShardedEngine::run_batch(
    const std::vector<JobRequest>& requests, const CancelToken& cancel) {
  RunGuard guard;
  guard.external = &cancel;
  return run_batch_impl(requests, guard);
}

void ShardedEngine::execute_scatter(const std::vector<JobRequest>& subs,
                                    const RunGuard& guard,
                                    ScatterOutcome& outcome) {
  outcome.results.assign(subs.size(), std::nullopt);

  std::mutex mutex;
  std::condition_variable changed;  // pending grew or in_flight fell
  std::deque<std::size_t> pending;
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) pending.push_back(i);

  const unsigned attempts = std::max(1u, config_.backend_attempts);
  const auto worker = [&](std::size_t backend_index) {
    Backend& backend = *backends_[backend_index];
    for (;;) {
      if (guard.cancelled() || guard.expired()) return;
      std::size_t shard = 0;
      {
        // An empty queue is not the end while a shard is in flight: its
        // backend may still fail and re-queue it, and a healthy worker
        // must be there to take it.
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock,
                     [&] { return !pending.empty() || in_flight == 0; });
        if (pending.empty()) return;
        shard = pending.front();
        pending.pop_front();
        ++in_flight;
      }
      bool done = false;
      for (unsigned attempt = 1; attempt <= attempts && !done; ++attempt) {
        try {
          JobResult result = backend.execute(subs[shard]);
          std::lock_guard<std::mutex> lock(mutex);
          outcome.results[shard] = std::move(result);
          --in_flight;
          done = true;
        } catch (const std::exception&) {
          // Backend-level failure (transport, dead engine). Transient
          // blips get an in-place retry after a deterministic pause...
          if (attempt < attempts && config_.retry_backoff_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    config_.retry_backoff_ms));
          }
        }
      }
      if (done) {
        changed.notify_all();
        shards_exec_.fetch_add(1);
        continue;
      }
      // ...and a persistent failure marks this backend down for the run:
      // the shard goes back to the FRONT of the queue (preserving the
      // canonical order of what's left) for a surviving worker to absorb.
      {
        std::lock_guard<std::mutex> lock(mutex);
        pending.push_front(shard);
        --in_flight;
        outcome.rerouted += 1;
        outcome.failed_backends += 1;
      }
      changed.notify_all();
      rerouted_.fetch_add(1);
      backends_failed_.fetch_add(1);
      return;
    }
  };

  const std::size_t workers = std::min(backends_.size(), subs.size());
  if (workers <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t b = 0; b < workers; ++b) {
      threads.emplace_back(worker, b);
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Whatever is left had no backend to run on (all marked down). Unless
  // the run was cancelled or timed out, degrade to local execution
  // rather than failing work we can still do.
  if (config_.allow_local_fallback) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (outcome.results[i].has_value()) continue;
      if (guard.cancelled() || guard.expired()) break;
      JobResult result = fallback_engine().run(subs[i]);
      result.degraded.push_back("shard:local_fallback");
      outcome.results[i] = std::move(result);
      outcome.fallback_shards += 1;
      local_fallback_.fetch_add(1);
      shards_exec_.fetch_add(1);
    }
  }
}

JobResult ShardedEngine::execute_single(const JobRequest& request,
                                        const RunGuard& guard,
                                        ShardInfo& info) {
  const unsigned attempts = std::max(1u, config_.backend_attempts);
  const std::size_t count = backends_.size();
  const std::size_t start =
      static_cast<std::size_t>(next_backend_.fetch_add(1)) % count;
  for (std::size_t offset = 0; offset < count; ++offset) {
    if (guard.cancelled() || guard.expired()) break;
    Backend& backend = *backends_[(start + offset) % count];
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
      try {
        JobResult result = backend.execute(request);
        shards_exec_.fetch_add(1);
        return result;
      } catch (const std::exception&) {
        if (attempt < attempts && config_.retry_backoff_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  config_.retry_backoff_ms));
        }
      }
    }
    info.failed_backends += 1;
    backends_failed_.fetch_add(1);
    if (offset + 1 < count) {
      info.rerouted += 1;
      rerouted_.fetch_add(1);
    }
  }
  if (guard.cancelled()) {
    JobResult result;
    result.status = JobStatus::kCancelled;
    result.error = ErrorKind::kCancelled;
    result.error_message = "job cancelled while running";
    result.engine.kind = job_kind(request);
    return result;
  }
  if (guard.expired()) {
    JobResult result;
    result.status = JobStatus::kDeadlineExceeded;
    result.error = ErrorKind::kDeadlineExceeded;
    result.error_message = "job deadline exceeded";
    result.engine.kind = job_kind(request);
    return result;
  }
  if (config_.allow_local_fallback) {
    JobResult result = fallback_engine().run(request);
    local_fallback_.fetch_add(1);
    shards_exec_.fetch_add(1);
    result.degraded.push_back("shard:local_fallback");
    return result;
  }
  JobResult result;
  result.status = JobStatus::kFailed;
  result.error = ErrorKind::kInternal;
  result.error_message = "all backends failed";
  result.engine.kind = job_kind(request);
  return result;
}

JobResult ShardedEngine::run_impl(const JobRequest& request,
                                  const RunGuard& base_guard) {
  const Clock::time_point start = Clock::now();
  jobs_run_.fetch_add(1);

  RunGuard guard = base_guard;
  const double deadline_ms = job_deadline_ms(request);
  if (deadline_ms > 0.0) {
    guard.has_deadline = true;
    guard.deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
  }

  const auto finish = [&](JobResult result) {
    result.engine.job_id = next_job_id_.fetch_add(1);
    result.engine.pool_threads = ThreadPool::instance().threads();
    result.engine.dispatch_threads = backends_.size();
    result.timings.queue_ms = 0.0;
    result.timings.total_ms = ms_between(start, Clock::now());
    return result;
  };

  // Mirror the Engine: refuse invalid requests up front, before any
  // backend sees a sub-job carved from them.
  std::vector<std::string> errors = validate(request);
  if (!errors.empty()) {
    JobResult result;
    result.status = JobStatus::kInvalid;
    result.error = ErrorKind::kInvalidRequest;
    result.error_message = "request failed validation";
    result.error_details = std::move(errors);
    result.engine.kind = job_kind(request);
    return finish(std::move(result));
  }

  // Decide the split. Only an untraced band-structure job is splittable
  // (a trace must keep whole-run program order); everything else runs
  // whole on one backend.
  const auto* band = std::get_if<BandStructureJob>(&request);
  std::vector<dft::KPoint> points;
  std::size_t shard_count = 1;
  if (band != nullptr && !band->record_trace) {
    const dft::Crystal crystal =
        band->atoms == 0 ? dft::silicon_primitive()
                         : dft::Crystal::silicon_supercell(band->atoms);
    points = band_job_kpoints(*band, crystal);
    const std::size_t by_backends =
        std::max<std::size_t>(1, backends_.size() *
                                     std::max<std::size_t>(
                                         1, config_.shards_per_backend));
    const std::size_t by_points =
        std::max<std::size_t>(1, points.size() /
                                     std::max<std::size_t>(
                                         1, kMinPointsPerShard));
    shard_count = std::min({by_backends, by_points, points.size()});
  }

  if (band == nullptr || shard_count <= 1) {
    ShardInfo info;
    info.backends = backends_.size();
    info.shards = 1;
    JobResult result = execute_single(request, guard, info);
    result.shard = info;
    return finish(std::move(result));
  }

  // Scatter: contiguous chunks of the canonical (already folded) k-set,
  // expressed as explicit sub-jobs so they survive the wire verbatim.
  // Sub-jobs inherit the REMAINING budget, floored just above zero so an
  // already-expired deadline still reads as "a deadline" downstream
  // (deadline_ms == 0 means unlimited in the job schema).
  const double remaining_ms =
      deadline_ms > 0.0
          ? std::max(0.001, deadline_ms - ms_between(start, Clock::now()))
          : 0.0;
  std::vector<JobRequest> subs;
  subs.reserve(shard_count);
  const std::size_t base = points.size() / shard_count;
  const std::size_t extra = points.size() % shard_count;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t take = base + (s < extra ? 1 : 0);
    BandStructureJob sub = *band;
    sub.sampling = BandStructureJob::Sampling::kExplicit;
    sub.kpoints.clear();
    sub.kpoints.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      const dft::KPoint& kp = points[cursor + i];
      BandStructureJob::KPointSpec spec;
      spec.k[0] = kp.k.x;
      spec.k[1] = kp.k.y;
      spec.k[2] = kp.k.z;
      spec.weight = kp.weight;
      spec.label = kp.label;
      sub.kpoints.push_back(std::move(spec));
    }
    sub.deadline_ms = remaining_ms;
    cursor += take;
    subs.emplace_back(std::move(sub));
  }

  ScatterOutcome outcome;
  execute_scatter(subs, guard, outcome);

  ShardInfo info;
  info.backends = backends_.size();
  info.shards = shard_count;
  info.rerouted = outcome.rerouted;
  info.failed_backends = outcome.failed_backends;

  const auto terminal = [&](JobStatus status, ErrorKind kind,
                            const std::string& message) {
    JobResult result;
    result.status = status;
    result.error = kind;
    result.error_message = message;
    result.engine.kind = job_kind(request);
    result.shard = info;
    return finish(std::move(result));
  };

  for (const std::optional<JobResult>& slot : outcome.results) {
    if (!slot.has_value()) {
      if (guard.cancelled()) {
        return terminal(JobStatus::kCancelled, ErrorKind::kCancelled,
                        "job cancelled while running");
      }
      if (guard.expired()) {
        return terminal(JobStatus::kDeadlineExceeded,
                        ErrorKind::kDeadlineExceeded,
                        "job deadline exceeded");
      }
      return terminal(JobStatus::kFailed, ErrorKind::kInternal,
                      "all backends failed");
    }
  }

  // A sub-job that ran but did not succeed fails the whole job with the
  // FIRST failing shard's verdict (canonical order keeps this stable
  // across completion orders).
  for (const std::optional<JobResult>& slot : outcome.results) {
    const JobResult& sub = *slot;
    if (sub.status == JobStatus::kOk) continue;
    JobResult result;
    result.status = sub.status;
    result.error = sub.error;
    result.error_message = sub.error_message;
    result.error_details = sub.error_details;
    result.engine.kind = job_kind(request);
    result.shard = info;
    return finish(std::move(result));
  }

  // Gather: concatenate in canonical shard order, then recompute the
  // summary once over the whole k-set. Each part is checked against its
  // sub-job first: an HttpBackend result was decoded from a remote server,
  // and the decoder checks member types, not payload shapes.
  JobResult result;
  result.status = JobStatus::kOk;
  result.engine.kind = job_kind(request);
  BandStructurePayload merged;
  for (std::size_t s = 0; s < outcome.results.size(); ++s) {
    const JobResult& sub = *outcome.results[s];
    if (!sub.band_structure.has_value()) {
      return terminal(JobStatus::kFailed, ErrorKind::kInternal,
                      strformat("shard %zu returned no band payload", s));
    }
    const BandStructurePayload& part = *sub.band_structure;
    const std::size_t sent =
        std::get<BandStructureJob>(subs[s]).kpoints.size();
    if (part.path.size() != sent) {
      return terminal(
          JobStatus::kFailed, ErrorKind::kInternal,
          strformat("shard %zu returned %zu k-points for the %zu it was sent",
                    s, part.path.size(), sent));
    }
    if (s == 0) {
      merged.atoms = part.atoms;
      merged.basis_size = part.basis_size;
    }
    merged.path.insert(merged.path.end(), part.path.begin(),
                       part.path.end());
    result.timings.run_ms += sub.timings.run_ms;
    result.timings.linalg_ms += sub.timings.linalg_ms;
    result.timings.backoff_ms += sub.timings.backoff_ms;
    result.timings.reduce_ms += sub.timings.reduce_ms;
    result.timings.tridiag_ms += sub.timings.tridiag_ms;
    result.timings.backtransform_ms += sub.timings.backtransform_ms;
    result.degraded.insert(result.degraded.end(), sub.degraded.begin(),
                           sub.degraded.end());
  }
  // The merged document reports the sampling the CALLER requested; the
  // sub-jobs' "explicit" form is a transport detail.
  merged.sampling = enum_name(band->sampling);
  try {
    summarize_bands(merged, band->valence_bands);
  } catch (const NdftError& error) {
    return terminal(JobStatus::kFailed, ErrorKind::kInternal,
                    std::string("gathered band payload rejected: ") +
                        error.what());
  }
  result.band_structure = std::move(merged);
  result.shard = info;
  return finish(std::move(result));
}

std::vector<JobResult> ShardedEngine::run_batch_impl(
    const std::vector<JobRequest>& requests, const RunGuard& guard) {
  jobs_run_.fetch_add(requests.size());
  ScatterOutcome outcome;
  execute_scatter(requests, guard, outcome);
  std::vector<JobResult> results;
  results.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    JobResult result;
    if (outcome.results[i].has_value()) {
      result = std::move(*outcome.results[i]);
    } else if (guard.cancelled()) {
      result.status = JobStatus::kCancelled;
      result.error = ErrorKind::kCancelled;
      result.error_message = "job cancelled while queued";
      result.engine.kind = job_kind(requests[i]);
    } else if (guard.expired()) {
      result.status = JobStatus::kDeadlineExceeded;
      result.error = ErrorKind::kDeadlineExceeded;
      result.error_message = "job deadline exceeded";
      result.engine.kind = job_kind(requests[i]);
    } else {
      result.status = JobStatus::kFailed;
      result.error = ErrorKind::kInternal;
      result.error_message = "all backends failed";
      result.engine.kind = job_kind(requests[i]);
    }
    ShardInfo info;
    info.backends = backends_.size();
    info.shards = requests.size();
    info.rerouted = outcome.rerouted;
    info.failed_backends = outcome.failed_backends;
    result.shard = info;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace ndft::api
