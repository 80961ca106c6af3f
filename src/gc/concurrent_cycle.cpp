#include "gc/concurrent_cycle.h"

namespace mgc {

ConcurrentCycle::ConcurrentCycle(SafepointCoordinator& sp,
                                 GcCostCounters& cost,
                                 std::function<void()> checkpoint_hook)
    : sp_(sp), cost_(cost), checkpoint_hook_(std::move(checkpoint_hook)) {}

// stop() must already have run (Vm's destructor order).
ConcurrentCycle::~ConcurrentCycle() { MGC_CHECK(!thread_.joinable()); }

void ConcurrentCycle::launch(std::function<void()> body) {
  thread_ = std::thread([this, body = std::move(body)] { thread_main(body); });
}

void ConcurrentCycle::stop() {
  {
    MutexLock g(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ConcurrentCycle::request() {
  {
    MutexLock g(mu_);
    requested_ = true;
  }
  cv_.notify_all();
}

void ConcurrentCycle::thread_main(const std::function<void()>& body) {
  sp_.register_thread();
  while (true) {
    {
      SafepointCoordinator::BlockedScope blocked(sp_);
      MutexLock l(mu_);
      cv_.wait(l, [&]() MGC_REQUIRES(mu_) {
        return stop_.load(std::memory_order_relaxed) || requested_;
      });
      if (stop_.load(std::memory_order_relaxed)) break;
      requested_ = false;
    }
    GcCostCounters::CycleScope cost(cost_);
    body();
  }
  sp_.unregister_thread();
}

void ConcurrentCycle::begin() {
  mark_stack_.clear();
  abort_.store(false, std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void ConcurrentCycle::abort() {
  mark_stack_.clear();
  abort_.store(true, std::memory_order_release);
  active_.store(false, std::memory_order_release);
}

void ConcurrentCycle::finish() {
  active_.store(false, std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

bool ConcurrentCycle::checkpoint() {
  sp_.poll();
  if (checkpoint_hook_) checkpoint_hook_();
  return !aborted();
}

}  // namespace mgc
