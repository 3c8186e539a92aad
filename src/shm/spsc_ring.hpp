// Single-producer single-consumer lock-free ring buffer.
//
// This is the queue that lives in the IVSHMEM-style shared-memory region
// between a tenant VM and the CoreEngine / an NSM (paper §3.1): fixed
// power-of-two capacity, trivially-copyable elements, acquire/release
// synchronization only, and cached peer indices so the uncontended fast
// path touches a single shared cache line.
//
// The simulation uses the same code single-threaded (functionally); the
// microbenchmarks (bench/nqe_copy, bench/shm_throughput) measure it for
// real across two threads.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

namespace nk::shm {

// 64 on every platform we target; fixed so the layout is ABI-stable (the
// queues notionally live in shared memory mapped by two parties).
inline constexpr std::size_t cache_line = 64;

template <typename T>
class spsc_ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring elements are copied through shared memory");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "slots come from plain operator new[]");

 public:
  // `capacity` is rounded up to a power of two. head/tail are free-running
  // counters, so every slot is usable. The slots are not zero-filled: a
  // push writes a slot before a pop reads it, so a ring's pages are
  // committed when first used, not when the ring is built.
  explicit spsc_ring(std::size_t capacity)
      : cap_{std::bit_ceil(capacity)},
        mask_{cap_ - 1},
        slots_{static_cast<T*>(::operator new[](cap_ * sizeof(T)))} {}

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  [[nodiscard]] std::size_t capacity() const { return cap_; }

  // Producer side -----------------------------------------------------------

  [[nodiscard]] bool try_push(const T& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ >= cap_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ >= cap_) return false;
    }
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Pushes as many of `values` as fit; returns the count pushed.
  std::size_t push_batch(std::span<const T> values) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t free_slots = cap_ - (head - tail_cache_);
    if (free_slots < values.size()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free_slots = cap_ - (head - tail_cache_);
    }
    const std::size_t n = std::min(free_slots, values.size());
    for (std::size_t i = 0; i < n; ++i) slots_[(head + i) & mask_] = values[i];
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  // Consumer side -----------------------------------------------------------

  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Pops up to out.size() elements; returns the count popped.
  std::size_t pop_batch(std::span<T> out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = head_cache_ - tail;
    if (avail < out.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      avail = head_cache_ - tail;
    }
    const std::size_t n = std::min(avail, out.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(tail + i) & mask_];
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  // Peeks at the next element without consuming it (consumer side only).
  [[nodiscard]] bool try_peek(T& out) const {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t head = head_cache_;
    if (tail == head) {
      head = head_.load(std::memory_order_acquire);
      head_cache_ = head;
      if (tail == head) return false;
    }
    out = slots_[tail & mask_];
    return true;
  }

  // Approximate occupancy: exact when called from either endpoint's thread,
  // a snapshot otherwise.
  [[nodiscard]] std::size_t size_approx() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }

  // Approximate free slots. A producer reading this sees a lower bound
  // (the consumer can only add space); backpressure decisions based on it
  // are conservative, never optimistic.
  [[nodiscard]] std::size_t free_approx() const {
    const std::size_t used = size_approx();
    return used >= cap_ ? 0 : cap_ - used;
  }

 private:
  const std::size_t cap_;
  const std::size_t mask_;
  struct slot_deleter {
    void operator()(T* p) const { ::operator delete[](p); }
  };
  std::unique_ptr<T[], slot_deleter> slots_;

  alignas(cache_line) std::atomic<std::size_t> head_{0};  // producer writes
  alignas(cache_line) std::size_t tail_cache_ = 0;        // producer-local
  alignas(cache_line) std::atomic<std::size_t> tail_{0};  // consumer writes
  alignas(cache_line) mutable std::size_t head_cache_ = 0;  // consumer-local
};

}  // namespace nk::shm
