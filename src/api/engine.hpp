#pragma once
// The Engine: the single public entry point of the framework.
//
// One Engine owns the long-lived shared resources — the process-wide
// kernel thread pool, the (process-wide) FFT plan cache it warms, and the
// simulated machine template (core::NdftSystem + SystemConfig) — and
// executes typed JobRequests either synchronously (`run`) or through an
// async submission queue (`submit` -> JobHandle) drained by a small set
// of dispatcher threads. Each dispatched job's numerical kernels flow
// through the shared deterministic thread pool (parallel_for serializes
// top-level calls), so concurrent jobs produce results bitwise identical
// to serial execution.
//
// The queue is cost-aware: each submission is stamped with an SCA-style
// estimate of its execution cost (the PlanJob roofline machinery) and
// dispatchers drain cheapest-first, so light jobs are not stuck behind
// heavy mixed traffic. Equal-cost jobs keep FIFO submission order, which
// also keeps the ordering stable for job kinds the estimator treats
// uniformly.
//
// Thread safety: every Engine method may be called from any thread.
// JobHandles are value types over shared state; status(), cancel() and
// wait() are safe from any thread.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/job.hpp"
#include "api/result.hpp"
#include "common/cancel.hpp"
#include "core/ndft_system.hpp"
#include "runtime/profile_store.hpp"

namespace ndft::api {

/// Engine construction knobs.
struct EngineConfig {
  /// Machine template every SimulateJob / PlanJob runs against.
  core::SystemConfig system = core::SystemConfig::paper_default();
  /// Dispatcher threads draining the async queue. 0 = manual mode: queued
  /// jobs execute only inside drain() on the calling thread (deterministic
  /// single-threaded embedding and cancellation tests).
  std::size_t dispatch_threads = 2;
  /// Aging escape hatch of the cost-aware queue: once the oldest pending
  /// job has waited this long, it runs next regardless of cost, so a
  /// sustained stream of cheap submissions cannot starve a heavy job.
  /// 0 degenerates to pure FIFO (age always wins).
  double starvation_limit_ms = 10000.0;
  /// Execution attempts per job for transient failures (allocation
  /// pressure, simulated device faults). 1 disables retry.
  unsigned max_attempts = 3;
  /// Deterministic backoff before retry k: retry_backoff_ms * 2^(k-1),
  /// capped at 50 ms. No jitter — retry schedules replay.
  double retry_backoff_ms = 1.0;
  /// Fault-injection spec installed at construction (see
  /// docs/ROBUSTNESS.md for the grammar). Empty = leave the process-wide
  /// fault state alone; the NDFT_FAULTS environment variable is the
  /// fallback when this is empty. The destructor clears whatever the
  /// constructor installed.
  std::string fault_spec;
  /// Path of the persistent device-profile store
  /// ("ndft.device_profile_store.v1", runtime/profile_store.hpp). When
  /// non-empty, calibrated CoDesignJob runs record their fitted CPU
  /// profile there and PlanJobs without an explicit profile_override
  /// default to the stored beliefs for this {git SHA, host, pool width}.
  /// Empty (the default) disables persistence entirely.
  std::string profile_store_path;
};

namespace detail {

/// Shared state behind a JobHandle.
struct JobState {
  std::uint64_t id = 0;
  JobRequest request;
  std::chrono::steady_clock::time_point submitted_at;
  /// Submission-time cost estimate: the queue's priority key (smaller
  /// drains first; the id breaks ties in FIFO order).
  TimePs est_cost_ps = 0;

  /// Cooperative cancel/deadline channel into the running job; also
  /// carries the queued-phase deadline.
  CancelToken cancel;
  /// The engine's cancelled-jobs counter. cancel() bumps it exactly once
  /// at the unique kQueued -> kCancelled transition; running-phase
  /// cancellations are counted by execute_queued() when the cancelled
  /// result is published. Null for states without an owning engine.
  std::atomic<std::uint64_t>* cancelled_counter = nullptr;

  std::mutex mutex;
  std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // guarded by mutex
  bool terminal = false;                  // result is final
  JobResult result;                       // valid once terminal
  /// Taken off the pending queue (guarded by Engine::queue_mutex_); lets
  /// the submission-order view prune lazily instead of erasing eagerly.
  bool dequeued = false;
};

}  // namespace detail

/// Handle to an asynchronously submitted job.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  std::uint64_t id() const;
  JobStatus status() const;

  /// Requests cancellation. A still-queued job becomes terminal
  /// kCancelled immediately. A running job is cancelled cooperatively:
  /// the request is accepted (returns true) and the job stops at its
  /// next stage boundary — SCF iteration, per-k solve, sim event
  /// batch — with status kCancelled; a job that finishes before
  /// reaching one keeps its result. Returns false once the job is
  /// already terminal.
  bool cancel();

  /// Blocks until the job reaches a terminal state and returns its result.
  const JobResult& wait() const;

  /// Waits up to `timeout_ms` for a terminal state. Returns true when the
  /// job is terminal (result available via wait(), which no longer
  /// blocks), false on timeout. The long-poll primitive of the service
  /// layer.
  bool wait_for(double timeout_ms) const;

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

/// The job-oriented front door of NDFT.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validates and executes `request` synchronously on the calling thread.
  /// Never throws for request-level problems: rejection and execution
  /// failures come back as JobResult.status / error.
  JobResult run(const JobRequest& request);

  /// Enqueues `request` for asynchronous execution, ordered by the
  /// engine's cost estimate (cheapest jobs drain first; equal estimates
  /// keep submission order). Throws NdftError when 4096 jobs are already
  /// pending (backpressure instead of unbounded growth).
  JobHandle submit(JobRequest request);

  /// Enqueues a batch in order; equivalent to calling submit() per entry.
  std::vector<JobHandle> submit_batch(std::vector<JobRequest> requests);

  /// Blocks until every submitted job is terminal. With
  /// dispatch_threads == 0 the calling thread executes the queue itself.
  void drain();

  // ---- shared-resource views / engine metadata.
  const core::SystemConfig& system_config() const noexcept;
  const core::NdftSystem& system() const noexcept { return system_; }
  std::size_t pool_threads() const noexcept;
  std::size_t dispatch_threads() const noexcept {
    return config_.dispatch_threads;
  }
  std::uint64_t jobs_submitted() const noexcept { return submitted_; }
  std::uint64_t jobs_completed() const noexcept { return completed_; }
  std::uint64_t jobs_cancelled() const noexcept { return cancelled_; }
  /// Transient-failure retries across all jobs (attempts beyond the
  /// first).
  std::uint64_t jobs_retried() const noexcept { return retries_; }
  /// Jobs that ended kDeadlineExceeded (queued or mid-run).
  std::uint64_t jobs_deadline_exceeded() const noexcept {
    return deadline_expired_;
  }
  /// Queued jobs that began executing (the exec-sequence high-water mark).
  std::uint64_t jobs_started() const noexcept { return exec_seq_; }
  /// Jobs that completed with at least one degradation note.
  std::uint64_t jobs_degraded() const noexcept { return degraded_; }
  /// Jobs waiting in the pending queue right now.
  std::size_t jobs_pending();
  /// Jobs currently executing on dispatcher (or drain) threads.
  std::size_t jobs_running();

 private:
  void dispatcher_loop();
  /// Removes the next job to run (queue_mutex_ held, queue non-empty):
  /// the cheapest job, unless the oldest one has aged past the
  /// starvation limit.
  std::shared_ptr<detail::JobState> pop_next_locked();
  /// Runs one queued job to its terminal state (dispatcher or drain
  /// path) and retires the in-flight count — atomically with the
  /// terminal publish, so a waiter never sees a finished job still
  /// counted by jobs_running().
  void execute_queued(const std::shared_ptr<detail::JobState>& state);
  /// Decrements in_flight_ and signals idle_cv_ when fully drained.
  void retire_in_flight_locked();  // queue_mutex_ held
  void retire_in_flight();
  /// Validation + retry loop around execute_once + timing/metadata
  /// stamping (no queue logic).
  JobResult execute(const JobRequest& request, const CancelToken& token);
  /// One execution attempt under the cancel/degradation scopes.
  JobResult execute_once(const JobRequest& request,
                         const CancelToken& token);

  EngineConfig config_;
  core::NdftSystem system_;  ///< machine template (thread-safe, immutable)
  /// Persistent calibrated-profile store; null when
  /// EngineConfig::profile_store_path is empty.
  std::unique_ptr<runtime::ProfileStore> profile_store_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  ///< signals dispatchers: work/stop
  std::condition_variable idle_cv_;   ///< signals drain(): queue empty
  /// Pending jobs, kept sorted by (est_cost_ps, id): front is always the
  /// cheapest job, FIFO among equals.
  std::deque<std::shared_ptr<detail::JobState>> queue_;
  /// The same jobs in submission order (lazily pruned via
  /// JobState::dequeued), so the starvation check finds the oldest
  /// pending job in O(1) instead of scanning the queue.
  std::deque<std::shared_ptr<detail::JobState>> fifo_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> dispatchers_;

  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> exec_seq_{0};  ///< queued-job start order
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> degraded_{0};
  /// True when the constructor installed a fault spec (and the
  /// destructor therefore clears the process-wide fault state).
  bool installed_faults_ = false;
};

}  // namespace ndft::api
