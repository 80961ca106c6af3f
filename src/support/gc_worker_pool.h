// Pool of long-lived GC worker threads. Parallel collection phases are
// expressed as `run(n, fn)` where fn(worker_id) executes on n workers and
// run() returns when all have finished — the classic HotSpot WorkGang.
// Keeping the threads alive across collections avoids thread creation in
// every pause (CP.41).
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "support/mutex.h"

namespace mgc {

class GcWorkerPool {
 public:
  explicit GcWorkerPool(int num_workers);
  ~GcWorkerPool();

  GcWorkerPool(const GcWorkerPool&) = delete;
  GcWorkerPool& operator=(const GcWorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  // Runs `fn(worker_id)` on `workers` workers (at most the pool size) and
  // blocks until all complete. Only one run() may be active at a time;
  // collections are serialized by the VM thread so this is not limiting.
  void run(int workers, const std::function<void(int)>& fn);

 private:
  void worker_main(int id);

  Mutex mu_{LockRank::kGcWorkerPool, "gc-worker-pool"};
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* task_ MGC_GUARDED_BY(mu_) = nullptr;
  std::uint64_t epoch_ MGC_GUARDED_BY(mu_) = 0;
  int active_workers_ MGC_GUARDED_BY(mu_) = 0;
  int finished_ MGC_GUARDED_BY(mu_) = 0;
  bool shutdown_ MGC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace mgc
