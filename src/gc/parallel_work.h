// Shared machinery for parallel collection phases: per-worker work-stealing
// deques with offer-termination, and a chunked claim counter for statically
// partitioned work (root chunks, card chunks).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "support/check.h"
#include "support/clock.h"
#include "support/gc_worker_pool.h"
#include "support/spinlock.h"
#include "support/ws_deque.h"

namespace mgc {

// Relaxed running maximum, for per-worker phase timings folded into a
// shared slot at phase end: the pause's critical path for a phase is the
// slowest worker, and relaxed ordering suffices because the pool's
// run()/join already orders the readers after the writers.
inline void fold_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Runs body(w) for every worker id w in [0, workers): on the calling thread
// when serial (`pool` may then be nullptr), on the pool's workers
// otherwise.
template <typename Body>
void run_workers(GcWorkerPool* pool, int workers, Body&& body) {
  MGC_CHECK(workers >= 1 && (pool != nullptr || workers == 1));
  if (workers == 1) {
    body(0);
  } else {
    pool->run(workers, body);
  }
}

// A pool of work-stealing deques with HotSpot-style offer-termination
// (ParallelTaskTerminator). A busy worker touches only its own deque: push
// and pop never write shared state. A worker whose deque is empty and whose
// steal sweep failed *offers termination* by incrementing the shared idle
// count, then watches every deque; on seeing work it withdraws the offer
// and steals again. The phase is over when the idle count reaches the
// worker count.
//
// Why that is exact: a worker only offers with an empty deque and no task
// in hand, and an idle worker pushes nothing, so once all workers are idle
// no task exists anywhere and none can appear. A stale "non-empty" peek
// merely costs one failed steal round and a re-offer.
//
// Every worker id in [0, workers) must run drain() exactly once per phase,
// or the idle count never reaches the worker count.
template <typename T>
class WorkSet {
 public:
  explicit WorkSet(int workers) {
    MGC_CHECK(workers >= 1);
    deques_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
      deques_.push_back(std::make_unique<WsDeque<T>>());
  }

  int workers() const { return static_cast<int>(deques_.size()); }

  void push(int worker, T item) {
    deques_[static_cast<std::size_t>(worker)]->push(item);
  }

  // Runs the drain loop for `worker`: pops local work, steals when empty,
  // offers termination when the steal sweep fails, and returns once every
  // worker is idle. `process` may push new items.
  template <typename ProcessFn>
  void drain(int worker, ProcessFn&& process) {
    auto& own = *deques_[static_cast<std::size_t>(worker)];
    std::uint64_t steals = 0;
    std::int64_t termination_ns = 0;
    while (true) {
      while (auto item = own.pop()) process(*item);
      if (auto item = steal(worker)) {
        ++steals;
        process(*item);
        continue;
      }
      const std::int64_t t0 = now_ns();
      const bool done = offer_termination();
      termination_ns += now_ns() - t0;
      if (done) break;
    }
    steals_.fetch_add(steals, std::memory_order_relaxed);
    fold_max(termination_ns_, termination_ns);
  }

  // Totals of the finished phase; read after the pool has joined.
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  // The slowest worker's time inside offer_termination().
  std::int64_t max_termination_ns() const {
    return termination_ns_.load(std::memory_order_relaxed);
  }

 private:
  // How long an idle worker busy-waits before it starts yielding its CPU.
  // Short on purpose: during a pause the mutators are parked, but other
  // runnable threads (a server's event loops, a load generator) share the
  // host, and a spinning GC worker starves them.
  static constexpr std::int64_t kSpinNs = 20'000;

  std::optional<T> steal(int worker) {
    const std::size_t n = deques_.size();
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t victim = (static_cast<std::size_t>(worker) + i) % n;
      if (auto item = deques_[victim]->steal()) return item;
    }
    return std::nullopt;
  }

  bool any_work() const {
    return std::any_of(deques_.begin(), deques_.end(),
                       [](const auto& d) { return !d->empty(); });
  }

  // True when the phase is complete; false when work appeared and the
  // caller should go back to stealing.
  bool offer_termination() {
    const int n = workers();
    if (idle_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) return true;
    const std::int64_t spin_until = now_ns() + kSpinNs;
    int spins = 1;
    while (true) {
      if (idle_.load(std::memory_order_acquire) == n) return true;
      if (any_work()) {
        idle_.fetch_sub(1, std::memory_order_acq_rel);
        return false;
      }
      if (now_ns() < spin_until) {
        for (int i = 0; i < spins; ++i) cpu_relax();
        if (spins < 64) spins <<= 1;
      } else {
        std::this_thread::yield();
      }
    }
  }

  std::vector<std::unique_ptr<WsDeque<T>>> deques_;
  // Idle workers are the only writers; padded so the busy workers' deques
  // never share its cache line.
  alignas(64) std::atomic<int> idle_{0};
  alignas(64) std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::int64_t> termination_ns_{0};
};

// Atomic chunk claimer over a fixed-size item list.
class ChunkClaimer {
 public:
  ChunkClaimer(std::size_t total, std::size_t chunk_size)
      : total_(total), chunk_(chunk_size == 0 ? 1 : chunk_size) {}

  // Claims [begin, end); returns false when exhausted.
  bool claim(std::size_t* begin, std::size_t* end) {
    const std::size_t b = next_.fetch_add(chunk_, std::memory_order_acq_rel);
    if (b >= total_) return false;
    *begin = b;
    *end = std::min(b + chunk_, total_);
    return true;
  }

 private:
  const std::size_t total_;
  const std::size_t chunk_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace mgc
