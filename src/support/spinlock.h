// Tiny TTAS spinlock with exponential backoff, for very short critical
// sections inside the collectors (per-region remembered sets, free-list
// bins). Satisfies the Lockable named requirement so std::scoped_lock and
// std::lock_guard work with it (CP.20). Carries thread-safety-analysis
// capability annotations and an optional LockRank, like mgc::Mutex.
#pragma once

#include <atomic>

#include "support/lock_rank.h"
#include "support/thread_annotations.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mgc {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class MGC_CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  explicit SpinLock(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() MGC_ACQUIRE() {
    int spins = 1;
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) break;
      // Test-and-test-and-set: spin on a plain load to avoid cache-line
      // ping-pong, backing off exponentially.
      while (flag_.load(std::memory_order_relaxed)) {
        for (int i = 0; i < spins; ++i) cpu_relax();
        if (spins < 1024) spins <<= 1;
      }
    }
    lockrank::note_acquire(this, rank_, name_, /*trylock=*/false);
  }

  bool try_lock() MGC_TRY_ACQUIRE(true) {
    if (flag_.exchange(true, std::memory_order_acquire)) return false;
    lockrank::note_acquire(this, rank_, name_, /*trylock=*/true);
    return true;
  }

  void unlock() MGC_RELEASE() {
    lockrank::note_release(this, rank_);
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "unranked";
};

// Scoped SpinLock holder with the scoped-capability annotation (the
// std::lock_guard<SpinLock> it replaces is invisible to -Wthread-safety:
// libstdc++'s guards carry no annotations).
class MGC_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& l) MGC_ACQUIRE(l) : l_(l) { l_.lock(); }
  ~SpinLockGuard() MGC_RELEASE() { l_.unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& l_;
};

}  // namespace mgc
