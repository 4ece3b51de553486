#pragma once
// The one callable type of the timing simulator's hot path.
//
// Every event on the EventQueue, every memory-request completion
// (mem::MemCallback) and every mesh delivery (noc::DeliveryFn) is a
// sim::Callback: a move-only callable invoked with the simulated time at
// which it fires. Callables that take no argument are accepted as well and
// simply ignore the time.
//
// A capture of up to kCallbackCapacity bytes (alignment at most that of a
// pointer) lives inside the Callback, so scheduling an event, completing a
// cache miss or delivering a packet allocates nothing. A larger capture is
// moved to the heap: it still works, at one allocation per callback.
// Components therefore never capture one Callback inside another (that
// would overflow the buffer); they keep in-flight state in their own
// tables and capture an index instead.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace ndft::sim {

/// Capture bytes a Callback holds without allocating: the largest capture
/// on the simulator's paths (a core's deferred issue: `this`, address,
/// size and the store flag) is 32 bytes.
inline constexpr std::size_t kCallbackCapacity = 32;

class Callback {
 public:
  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        !std::is_same_v<Fn, std::nullptr_t>>>
  Callback(F&& fn) : storage_{} {  // zeroed: moves copy the whole buffer
    static_assert(std::is_invocable_v<Fn&, TimePs> || std::is_invocable_v<Fn&>,
                  "a Callback takes the firing time or nothing");
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = &invoke_inline<Fn>;
      if constexpr (!std::is_trivially_copyable_v<Fn>) {
        manage_ = &manage_inline<Fn>;
      }
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  friend bool operator==(const Callback& fn, std::nullptr_t) noexcept {
    return fn.invoke_ == nullptr;
  }

  /// Calls the target with the firing time. Requires a target.
  void operator()(TimePs at) const { invoke_(storage_, at); }

 private:
  // Moves the target out of `from` into `to`, or destroys it (to null).
  using Manage = void (*)(unsigned char* from, unsigned char* to) noexcept;
  using Invoke = void (*)(unsigned char* storage, TimePs at);

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kCallbackCapacity && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static void call(Fn& fn, TimePs at) {
    if constexpr (std::is_invocable_v<Fn&, TimePs>) {
      fn(at);
    } else {
      fn();
    }
  }
  template <typename Fn>
  static Fn* inline_target(unsigned char* storage) noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn* heap_target(unsigned char* storage) noexcept {
    return *std::launder(reinterpret_cast<Fn**>(storage));
  }
  template <typename Fn>
  static void invoke_inline(unsigned char* storage, TimePs at) {
    call(*inline_target<Fn>(storage), at);
  }
  template <typename Fn>
  static void invoke_heap(unsigned char* storage, TimePs at) {
    call(*heap_target<Fn>(storage), at);
  }
  template <typename Fn>
  static void manage_inline(unsigned char* from, unsigned char* to) noexcept {
    Fn* target = inline_target<Fn>(from);
    if (to != nullptr) ::new (static_cast<void*>(to)) Fn(std::move(*target));
    target->~Fn();
  }
  template <typename Fn>
  static void manage_heap(unsigned char* from, unsigned char* to) noexcept {
    Fn* target = heap_target<Fn>(from);
    if (to != nullptr) {
      ::new (static_cast<void*>(to)) Fn*(target);
    } else {
      delete target;
    }
  }

  // A target without a manager is trivially copyable: moving it is a copy
  // of the buffer, destroying it is nothing.
  void take(Callback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kCallbackCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }
  void reset() noexcept {
    if (manage_ != nullptr) manage_(storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(void*) mutable unsigned char storage_[kCallbackCapacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace ndft::sim
