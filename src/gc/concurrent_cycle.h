// The background-cycle lifecycle shared by the concurrent collectors (CMS
// and G1). One collector thread, registered with the safepoint coordinator,
// sleeps in a blocked-state CondVar wait until request() and then runs the
// collector's cycle body once, charging the cycle's thread CPU time to the
// concurrent channel of GcCostCounters. The component also owns the cycle
// flags and the concurrent-marking stack, with the two ways of draining
// it: in kMarkBatch batches between checkpoints while mutators run, and
// whole inside the remark pause.
//
// The mark stack needs no lock: the background thread touches it outside
// pauses, the VM thread inside them, and the background thread only meets
// a safepoint at a checkpoint() or blocked in a VM operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "heap/object.h"
#include "runtime/gc_cost.h"
#include "runtime/safepoint.h"
#include "support/mutex.h"

namespace mgc {

class ConcurrentCycle {
 public:
  // Objects traced between two checkpoints of the concurrent drain.
  static constexpr std::size_t kMarkBatch = 128;

  // `checkpoint_hook` runs at every checkpoint, before the abort test.
  ConcurrentCycle(SafepointCoordinator& sp, GcCostCounters& cost,
                  std::function<void()> checkpoint_hook = {});
  ~ConcurrentCycle();
  ConcurrentCycle(const ConcurrentCycle&) = delete;
  ConcurrentCycle& operator=(const ConcurrentCycle&) = delete;

  // Starts the background thread; `body` runs once per requested cycle.
  void launch(std::function<void()> body);
  // Ends the running cycle at its next checkpoint and joins the thread. A
  // request pending then, or made afterwards, starts nothing.
  void stop();
  void request();

  // Pause side: open a cycle (empty stack, not aborted, active), abandon
  // it (the body bails at its next checkpoint), or close a completed one.
  void begin();
  void abort();
  void finish();

  bool active() const { return active_.load(std::memory_order_acquire); }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  // The cycle was abandoned in a pause, or the thread is stopping.
  bool aborted() const {
    return abort_.load(std::memory_order_acquire) ||
           stop_.load(std::memory_order_acquire);
  }
  // Runs between batches of every concurrent phase: parks at a pending
  // safepoint, runs the hook, and returns false once the cycle must end.
  bool checkpoint();

  void push(Obj* o) { mark_stack_.push_back(o); }

  // Concurrent marking: true once the stack is empty, false if the cycle
  // ended first.
  template <typename Scan>
  bool drain_concurrently(Scan scan) {
    while (checkpoint()) {
      if (mark_stack_.empty()) return true;
      drain(scan, kMarkBatch);
    }
    return false;
  }

  // Scans up to `max` objects off the stack (remark: all of them).
  template <typename Scan>
  void drain(Scan scan,
             std::size_t max = std::numeric_limits<std::size_t>::max()) {
    for (; max > 0 && !mark_stack_.empty(); --max) {
      Obj* o = mark_stack_.back();
      mark_stack_.pop_back();
      scan(o);
    }
  }

 private:
  void thread_main(const std::function<void()>& body);

  SafepointCoordinator& sp_;
  GcCostCounters& cost_;
  const std::function<void()> checkpoint_hook_;
  Mutex mu_{LockRank::kGcBackground, "gc-background"};
  CondVar cv_;
  std::atomic<bool> stop_{false};  // set under mu_ so the wait sees it
  bool requested_ MGC_GUARDED_BY(mu_) = false;
  std::atomic<bool> active_{false};
  std::atomic<bool> abort_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::vector<Obj*> mark_stack_;
  std::thread thread_;  // last: it uses every member above
};

}  // namespace mgc
