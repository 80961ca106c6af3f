#include "support/gc_worker_pool.h"

#include "support/check.h"

namespace mgc {

GcWorkerPool::GcWorkerPool(int num_workers) {
  MGC_CHECK(num_workers >= 1);
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
}

GcWorkerPool::~GcWorkerPool() {
  {
    MutexLock g(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void GcWorkerPool::run(int workers, const std::function<void(int)>& fn) {
  // No clamping: a parallel phase hands out one work-stealing deque per
  // worker id and ends only when every id has run (offer-termination).
  MGC_CHECK(workers >= 1 && workers <= size());
  MutexLock g(mu_);
  MGC_CHECK_MSG(task_ == nullptr, "GcWorkerPool::run is not reentrant");
  task_ = &fn;
  active_workers_ = workers;
  finished_ = 0;
  ++epoch_;
  start_cv_.notify_all();
  done_cv_.wait(g, [&]() MGC_REQUIRES(mu_) { return finished_ == active_workers_; });
  task_ = nullptr;
}

void GcWorkerPool::worker_main(int id) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int)>* task = nullptr;
    {
      MutexLock g(mu_);
      start_cv_.wait(g, [&]() MGC_REQUIRES(mu_) {
        return shutdown_ || (task_ != nullptr && epoch_ != seen_epoch && id < active_workers_);
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
      task = task_;
    }
    (*task)(id);
    {
      MutexLock g(mu_);
      ++finished_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace mgc
