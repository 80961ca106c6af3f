// Chase-Lev work-stealing deque (dynamic circular array variant), the task
// queue behind all parallel collection phases. The owner pushes/pops at the
// bottom without contention; thieves steal from the top with a single CAS.
//
// Reference: Chase & Lev, "Dynamic Circular Work-Stealing Deque", SPAA'05,
// with the C11 memory-ordering corrections of Lê et al., PPoPP'13.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "support/check.h"
#include "support/tsan_annotations.h"

namespace mgc {

// Cache-line aligned: each GC worker owns one deque, and two deques
// sharing a line would make every owner push/pop contend with a neighbour.
template <typename T>
class alignas(64) WsDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "WsDeque elements are copied with relaxed atomicity");

 public:
  explicit WsDeque(std::size_t initial_capacity = 256)
      : array_(new Array(round_up_pow2(initial_capacity))) {}

  ~WsDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  // Owner-only.
  void push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
      a = grow(a, t, b);
    }
    a->put(b, item);
    std::atomic_thread_fence(std::memory_order_release);
    // TSan does not model the fence above; hand it the release edge on
    // bottom_ explicitly so a thief's read of the pushed task (and of
    // whatever the task points at) is ordered after this publish.
    MGC_TSAN_RELEASE(&bottom_);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  // Owner-only.
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      T item = a->get(b);
      if (t == b) {
        // Last element: race with thieves via CAS on top.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          bottom_.store(b + 1, std::memory_order_relaxed);
          return std::nullopt;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return item;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // Any thread.
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    // Acquire side of the annotated release in push(): everything the owner
    // published before bumping bottom_ is visible to this thief.
    MGC_TSAN_ACQUIRE(&bottom_);
    if (t >= b) return std::nullopt;
    Array* a = array_.load(std::memory_order_consume);
    T item = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;
    }
    return item;
  }

  bool empty() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b <= t;
  }

  std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  struct Array {
    explicit Array(std::size_t cap) : capacity(cap), mask(cap - 1), slots(cap) {}
    std::size_t capacity;
    std::size_t mask;
    std::vector<std::atomic<T>> slots;

    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i) & mask].store(v,
                                                      std::memory_order_relaxed);
    }
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    array_.store(bigger, std::memory_order_release);
    // Old arrays are retired, not freed: a concurrent thief may still hold a
    // pointer to one. They are reclaimed when the deque is destroyed, which
    // only happens after all parallel phases using it have joined.
    retired_.push_back(old);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;
};

}  // namespace mgc
