#include "common/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.hpp"

namespace ndft {
namespace {

/// True while the current thread is executing chunks of some parallel_for;
/// nested calls run inline to avoid deadlock and oversubscription.
thread_local bool t_in_parallel_region = false;

/// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() noexcept {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Moves the calling thread off `cpu` without pinning it: one
/// sched_setaffinity to the thread's allowed set minus `cpu` (the kernel
/// migrates it at once), then straight back to the full set. A woken
/// worker that the kernel placed on its waker's CPU otherwise only runs
/// while the waker blocks, so the region runs serially. Does nothing when
/// the thread may run on one CPU only, when a call fails, or off Linux.
void leave_cpu(int cpu) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  if (cpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  if (sched_setaffinity(0, sizeof(others), &others) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)cpu;
#endif
}

std::size_t hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t default_thread_count() {
  const char* env = std::getenv("NDFT_NUM_THREADS");
  if (env == nullptr) {
    return hardware_thread_count();
  }
  bool clamped = false;
  const std::size_t parsed = thread_count_from_env(env, &clamped);
  if (parsed == 0) {
    // Malformed override ("8x", "", "abc", "-2"): strtol's longest-prefix
    // reading would silently accept the garbage. Warn once (this runs
    // once, at first pool use) and fall back to the hardware width.
    const std::size_t fallback = hardware_thread_count();
    std::fprintf(stderr,
                 "ndft: ignoring malformed NDFT_NUM_THREADS='%s'; "
                 "using %zu hardware threads\n",
                 env, fallback);
    return fallback;
  }
  if (clamped) {
    std::fprintf(stderr,
                 "ndft: NDFT_NUM_THREADS='%s' exceeds the %zu-thread "
                 "ceiling; clamping\n",
                 env, kMaxPoolThreads);
  }
  return parsed;
}

}  // namespace

std::size_t thread_count_from_env(const char* value,
                                  bool* clamped) noexcept {
  if (clamped != nullptr) {
    *clamped = false;
  }
  if (value == nullptr || *value == '\0') {
    return 0;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  const bool overflowed = errno == ERANGE;
  if (end == value || *end != '\0') {
    return 0;  // non-numeric, or a trailing suffix like "8x"
  }
  if (overflowed && parsed <= 0) {
    return 0;  // underflowed a huge negative value
  }
  if (!overflowed && parsed < 1) {
    return 0;
  }
  if (overflowed || static_cast<unsigned long>(parsed) > kMaxPoolThreads) {
    if (clamped != nullptr) {
      *clamped = true;
    }
    return kMaxPoolThreads;
  }
  return static_cast<std::size_t>(parsed);
}

struct ThreadPool::Impl {
  // One broadcast job at a time. Its caller holds this mutex for the
  // whole region; a top-level call from another thread that finds it
  // held runs inline instead of waiting (workers never touch it, and
  // nested calls already run inline before reaching it).
  std::mutex submit_mutex;
  // Broadcast job state. The caller publishes a job and opens it, pulls
  // chunk indices from `next_chunk` until the job is drained, closes it,
  // and then waits only for the workers that joined while it was open. A
  // worker joins only an open job with chunks left; one that wakes after
  // the close (or after the caller drained the job) goes back to sleep and
  // nobody waits on it, so a short region never pays for a worker that
  // has not yet started.
  std::mutex mutex;
  std::condition_variable job_ready;
  std::condition_variable job_done;
  std::vector<std::thread> workers;
  std::uint64_t generation = 0;
  bool stopping = false;
  bool open = false;
  std::size_t joined = 0;
  int caller_cpu = -1;

  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t job_begin = 0;
  std::size_t job_end = 0;
  std::size_t chunk_size = 1;
  std::size_t chunk_count = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::exception_ptr first_error;

  void run_chunks() {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t chunk = next_chunk.fetch_add(1);
      if (chunk >= chunk_count) break;
      const std::size_t lo = job_begin + chunk * chunk_size;
      const std::size_t hi = std::min(job_end, lo + chunk_size);
      try {
        (*body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
    t_in_parallel_region = false;
  }

  void worker_loop(std::uint64_t spawn_generation) {
    // Start at the generation current when the worker was spawned:
    // workers added by resize() must not mistake an already-finished
    // job's generation for new work.
    std::uint64_t seen = spawn_generation;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      job_ready.wait(lock, [&] { return stopping || generation != seen; });
      if (stopping) return;
      seen = generation;
      if (!open || next_chunk.load() >= chunk_count) continue;
      ++joined;
      const int cpu = caller_cpu;
      lock.unlock();
      // The job fields stay fixed until `joined` drops back to zero.
      if (current_cpu() == cpu) {
        leave_cpu(cpu);
      }
      run_chunks();
      lock.lock();
      if (--joined == 0 && !open) {
        job_done.notify_one();
      }
    }
  }

  void start(std::size_t total_threads) {
    stopping = false;
    const std::uint64_t spawn_generation = generation;
    for (std::size_t i = 1; i < total_threads; ++i) {
      workers.emplace_back(
          [this, spawn_generation] { worker_loop(spawn_generation); });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    job_ready.notify_all();
    for (std::thread& worker : workers) {
      worker.join();
    }
    workers.clear();
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  impl_->start(threads == 0 ? 1 : threads);
}

ThreadPool::~ThreadPool() { impl_->stop(); }

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

std::size_t ThreadPool::threads() const noexcept {
  return impl_->workers.size() + 1;
}

void ThreadPool::resize(std::size_t threads) {
  NDFT_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  impl_->stop();
  impl_->start(threads);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  const std::size_t total_threads = threads();
  if (range <= std::max<std::size_t>(grain, 1) || total_threads == 1 ||
      t_in_parallel_region) {
    body(begin, end);
    return;
  }

  // Chunk boundaries depend only on (range, grain, thread count): ~4
  // chunks per thread for load balance, never below the grain.
  const std::size_t target_chunks = total_threads * 4;
  const std::size_t chunk_size = std::max(
      std::max<std::size_t>(grain, 1),
      (range + target_chunks - 1) / target_chunks);

  Impl& impl = *impl_;
  std::unique_lock<std::mutex> submission(impl.submit_mutex,
                                          std::try_to_lock);
  if (!submission.owns_lock()) {
    // Another thread's region holds the pool: run this one on the calling
    // thread rather than stall behind it. One chunk, as at pool width 1.
    body(begin, end);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.body = &body;
    impl.job_begin = begin;
    impl.job_end = end;
    impl.chunk_size = chunk_size;
    impl.chunk_count = (range + chunk_size - 1) / chunk_size;
    impl.next_chunk.store(0);
    impl.first_error = nullptr;
    impl.caller_cpu = current_cpu();
    impl.open = true;
    ++impl.generation;
  }
  impl.job_ready.notify_all();
  impl.run_chunks();
  std::unique_lock<std::mutex> lock(impl.mutex);
  impl.open = false;
  impl.job_done.wait(lock, [&] { return impl.joined == 0; });
  impl.body = nullptr;
  if (impl.first_error) {
    std::rethrow_exception(impl.first_error);
  }
}

}  // namespace ndft
