#pragma once
// Cooperative cancellation and deadlines for long-running jobs.
//
// A CancelToken wraps shared state carrying a cancel flag and an optional
// deadline. The running side installs a CancelScope (thread-local, same
// pattern as TraceScope) and the pipeline calls cancel_point() at its
// stage boundaries — SCF iterations, per-k solves, sim event batches.
// When the token is cancelled or past its deadline, the next
// cancel_point() throws CancelledError / DeadlineExceededError, which the
// Engine maps to the kCancelled / kDeadlineExceeded statuses.
//
// cancel_point() off any scope (direct library use, tests, pool workers)
// is a thread-local null check — effectively free — so the checks can
// stay in the pipeline unconditionally.
//
// Neither exception derives from NdftError: an escaped cancellation must
// not be mistaken for a physics failure.

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace ndft {

/// Thrown by cancel_point() after CancelToken::request_cancel().
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("job cancelled while running") {}
};

/// Thrown by cancel_point() once the token's deadline has passed.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError() : std::runtime_error("job deadline exceeded") {}
};

namespace detail {

/// Shared state behind a CancelToken.
struct CancelShared {
  std::atomic<bool> cancelled{false};
  /// Deadline as nanoseconds since the steady_clock epoch; 0 = none.
  /// Set once (before or while the job runs), read at every checkpoint.
  std::atomic<std::int64_t> deadline_ns{0};
};

}  // namespace detail

/// Value-type handle to the shared cancel/deadline state. A
/// default-constructed token is inert (never cancels, no deadline).
class CancelToken {
 public:
  CancelToken() = default;

  /// A fresh, uncancelled token with no deadline.
  static CancelToken create() {
    return CancelToken(std::make_shared<detail::CancelShared>());
  }

  bool valid() const noexcept { return shared_ != nullptr; }

  /// Requests cooperative cancellation; the running side observes it at
  /// its next cancel_point(). Idempotent, safe from any thread.
  void request_cancel() const noexcept {
    if (shared_) shared_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Arms the absolute deadline (steady clock).
  void set_deadline(std::chrono::steady_clock::time_point when) const noexcept {
    if (shared_) {
      shared_->deadline_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              when.time_since_epoch())
              .count(),
          std::memory_order_relaxed);
    }
  }

  bool cancel_requested() const noexcept {
    return shared_ &&
           shared_->cancelled.load(std::memory_order_relaxed);
  }

  bool deadline_exceeded() const noexcept {
    if (!shared_) return false;
    const std::int64_t ns =
        shared_->deadline_ns.load(std::memory_order_relaxed);
    return ns != 0 &&
           std::chrono::steady_clock::now().time_since_epoch() >=
               std::chrono::nanoseconds(ns);
  }

  /// Throws CancelledError / DeadlineExceededError when due; cancellation
  /// wins when both are.
  void check() const {
    if (!shared_) return;
    if (cancel_requested()) throw CancelledError();
    if (deadline_exceeded()) throw DeadlineExceededError();
  }

 private:
  explicit CancelToken(std::shared_ptr<detail::CancelShared> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<detail::CancelShared> shared_;
};

/// RAII installer: makes `token` the one cancel_point() checks on this
/// thread (nests; the outer token is restored on destruction).
class CancelScope {
 public:
  explicit CancelScope(const CancelToken& token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken token_;
  const CancelToken* previous_;
};

/// Stage-boundary checkpoint: throws when the installed token is
/// cancelled or past its deadline; a null check otherwise.
void cancel_point();

/// True when the installed token is cancelled or past deadline (for call
/// sites that want to stop without throwing).
bool cancel_pending() noexcept;

}  // namespace ndft
