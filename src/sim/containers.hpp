#pragma once
// Containers for the simulator's hot path that keep their capacity, so a
// component that has reached its peak occupancy stops allocating.
//
// Fifo replaces std::deque for component queues: a deque frees a block
// whenever its head leaves one and allocates a new one whenever its tail
// fills one, so a queue in steady state allocates every few elements
// (every 4-7 for the simulator's 72-112 byte messages). A Fifo keeps its
// elements in one power-of-two ring that only grows.
//
// Slab holds objects in flight (scheduled callables, messages on a wire,
// transactions crossing the NDP fabric) addressed by a 32-bit slot index,
// which a callback can capture in place of the object itself.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ndft::sim {

/// Ring-buffer FIFO with deque-style access. T must be default
/// constructible and move assignable; a popped slot is reset to T{} so it
/// releases what it held.
template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Element `i` positions behind the head (0 = front).
  T& operator[](std::size_t i) noexcept { return ring_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const noexcept {
    return ring_[(head_ + i) & mask_];
  }
  T& front() noexcept { return ring_[head_]; }
  const T& front() const noexcept { return ring_[head_]; }
  T& back() noexcept { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == ring_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    NDFT_ASSERT(size_ > 0);
    ring_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Removes element `i`, keeping the others in order. The elements ahead
  /// of it shift back one place, so removal near the head is cheap.
  void erase(std::size_t i) {
    NDFT_ASSERT(i < size_);
    for (; i > 0; --i) {
      (*this)[i] = std::move((*this)[i - 1]);
    }
    pop_front();
  }

 private:
  void grow() {
    std::vector<T> ring(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      ring[i] = std::move((*this)[i]);
    }
    ring_.swap(ring);
    head_ = 0;
    mask_ = ring_.size() - 1;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Objects addressed by slot index; freed slots are reused, most recently
/// freed first. T must be move assignable.
template <typename T>
class Slab {
 public:
  /// Stores `value` in a free slot and returns the slot.
  std::uint32_t insert(T value) {
    if (free_.empty()) {
      NDFT_ASSERT(items_.size() < UINT32_MAX);
      items_.push_back(std::move(value));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    items_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out of `slot` and frees the slot.
  T take(std::uint32_t slot) {
    T value = std::move(items_[slot]);
    free_.push_back(slot);
    return value;
  }

  T& operator[](std::uint32_t slot) noexcept { return items_[slot]; }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace ndft::sim
