#pragma once
// Process-wide worker pool and the `parallel_for` primitive used by the
// high-performance numerical kernels (FFT line batches, GEMM row blocks,
// Hamiltonian assembly).
//
// Design constraints, in order:
//  1. Determinism: parallel_for only ever partitions an index range into
//     disjoint chunks, and how it partitions a call may depend on other
//     threads' regions (rule 4). A body must give the same result for
//     any partition of its range, as at width 1 against width N; callers
//     guarantee that, so results are bitwise identical for any thread
//     count and any concurrent load.
//  2. Small problems stay serial: ranges at or below the caller-supplied
//     grain run inline on the calling thread with zero synchronisation.
//  3. Nesting is safe: a parallel_for issued from inside a worker (or from
//     inside another parallel_for body on the caller thread) runs inline
//     rather than deadlocking or oversubscribing.
//  4. No caller waits for another: a top-level call made while another
//     thread's region holds the pool runs inline on its own thread.
//
// The pool size defaults to the hardware concurrency and can be overridden
// with the NDFT_NUM_THREADS environment variable (checked once, at first
// use) or programmatically with resize() (tests and benchmarks).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>

namespace ndft {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in a parallel_for (workers + caller).
  std::size_t threads() const noexcept;

  /// Rebuilds the pool with `threads` total threads (>= 1). Must not be
  /// called while a parallel_for is in flight; intended for tests and
  /// benchmarks that pin the thread count.
  void resize(std::size_t threads);

  /// Runs `body(chunk_begin, chunk_end)` over disjoint chunks covering
  /// [begin, end). Serial (inline, no synchronisation) when the range has
  /// at most `grain` iterations, the pool has one thread, the call is
  /// nested inside another parallel region, or another thread's region
  /// holds the pool, so the partition of a call depends on what other
  /// threads run at that moment. A body must therefore give the same
  /// result for any partition of its range (one chunk, as at width 1,
  /// against width N's chunks). The first exception thrown by a chunk is
  /// rethrown on the calling thread after all chunks finish. Thread-safe:
  /// one top-level region at a time gets the workers; a concurrent call
  /// never waits for it.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  explicit ThreadPool(std::size_t threads);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper over ThreadPool::instance().parallel_for.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::instance().parallel_for(begin, end, grain, body);
}

/// Ceiling on the pool width an NDFT_NUM_THREADS override may request;
/// absurd values clamp here instead of spawning thousands of threads.
inline constexpr std::size_t kMaxPoolThreads = 512;

/// Parses an NDFT_NUM_THREADS-style override. Returns the thread count
/// for a well-formed positive integer (clamped to kMaxPoolThreads, with
/// `clamped` set when that happened), and 0 for anything else — null,
/// empty, non-numeric, trailing garbage ("8x"), or values below 1 — so
/// the caller can fall back to the hardware concurrency. Exposed
/// separately from the pool so the parsing rules are testable.
std::size_t thread_count_from_env(const char* value,
                                  bool* clamped = nullptr) noexcept;

/// The one place the serial/parallel cutoff policy lives: a grain that
/// keeps roughly 64k work units per chunk given the work per index
/// (elements of an FFT line, entries of a matrix row, ...). Ranges whose
/// total work falls below that stay serial in parallel_for.
inline std::size_t parallel_grain(std::size_t work_per_index) {
  return std::max<std::size_t>(
      1, (std::size_t{1} << 16) / std::max<std::size_t>(1, work_per_index));
}

}  // namespace ndft
