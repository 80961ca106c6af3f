#include "kvstore/server.h"

#include <algorithm>

#include "support/affinity.h"
#include "support/env.h"
#include "support/fault.h"

namespace mgc::kv {

Server::Server(Vm& vm, ShardedStore& store, ServerConfig cfg)
    : vm_(vm), store_(store), cfg_(cfg) {
  MGC_CHECK(cfg.workers_per_shard >= 1);
  const std::size_t n = store.shard_count();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = static_cast<std::uint32_t>(i);
    s->store = &store.shard(i);
    shards_.push_back(std::move(s));
  }
  for (auto& s : shards_) {
    Shard& sh = *s;
    for (int i = 0; i < cfg.workers_per_shard; ++i) {
      sh.workers.emplace_back([this, &sh, i] { worker_main(sh, i); });
    }
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  MutexLock outer(shutdown_mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& s : shards_) {
    {
      MutexLock g(s->mu);
      s->stopping = true;
    }
    s->queue_cv.notify_all();
    // Wake clients blocked on a full queue too: they observe stopping and
    // return ExecStatus::kShutdown instead of hanging forever.
    s->space_cv.notify_all();
  }
  // Join every shard's workers only after all shards were told to stop, so
  // shutdown latency is the slowest shard's drain, not the sum of drains.
  for (auto& s : shards_) {
    for (auto& t : s->workers) {
      if (t.joinable()) t.join();
    }
    // The drain invariant must be read under the shard lock: `stopping`
    // rejects new submissions, but a try_submit caller that lost the race
    // may still be inside its critical section when the last worker exits.
    MutexLock g(s->mu);
    MGC_CHECK_MSG(s->queue.empty(), "server stopped with queued requests");
  }
}

bool Server::under_gc_pressure() const {
  const HeapUsage u = vm_.usage();
  return u.used > (u.capacity / 100) * 95;
}

std::size_t Server::shard_of_key(std::uint64_t key) const {
  return store_.shard_of(key);
}

std::uint64_t Server::shed_count(std::size_t shard) const {
  return shards_[shard]->shed.load(std::memory_order_acquire);
}

Response Server::execute(const Request& req) {
  Shard& s = *shards_[shard_of_key(req.key)];
  Pending p;
  p.req = req;
  MutexLock l(s.mu);
  // Load shedding: a full queue is normally back-pressured by blocking, but
  // when the heap is also near capacity every queued request deepens the
  // collection spiral. Reject immediately with a typed status instead. The
  // decision is per shard: a hot shard sheds while its siblings keep
  // serving.
  if (fault::should_fire(fault::Site::kKvQueueFull, s.index) ||
      (s.queue.size() >= cfg_.queue_capacity && under_gc_pressure())) {
    s.shed.fetch_add(1, std::memory_order_acq_rel);
    Response r;
    r.status = ExecStatus::kOverloaded;
    return r;
  }
  s.space_cv.wait(l, [&]() MGC_REQUIRES(s.mu) {
    return s.queue.size() < cfg_.queue_capacity || s.stopping;
  });
  if (s.stopping) {
    Response r;
    r.status = ExecStatus::kShutdown;
    return r;
  }
  s.queue.push_back(&p);
  s.queue_cv.notify_one();
  p.cv.wait(l, [&]() MGC_REQUIRES(s.mu) { return p.done; });
  return p.resp;
}

SubmitResult Server::try_submit(const Request& req, CompletionFn done) {
  Shard& s = *shards_[shard_of_key(req.key)];
  auto* p = new Pending;
  p->req = req;
  p->completion = std::move(done);
  {
    MutexLock g(s.mu);
    if (s.stopping) {
      delete p;
      return SubmitResult::kShutdown;
    }
    if (fault::should_fire(fault::Site::kKvQueueFull, s.index) ||
        (s.queue.size() >= cfg_.queue_capacity && under_gc_pressure())) {
      s.shed.fetch_add(1, std::memory_order_acq_rel);
      delete p;
      return SubmitResult::kOverloaded;
    }
    s.queue.push_back(p);
  }
  s.queue_cv.notify_one();
  return SubmitResult::kAccepted;
}

void Server::worker_main(Shard& s, int widx) {
  if (cfg_.pin_workers) {
    // Best effort: shard i's workers share core i so each shard's working
    // set stays core-local. Refusal (no affinity syscall, 1-core box) just
    // leaves the worker floating.
    (void)pin_this_thread(static_cast<int>(s.index));
  }
  Mutator m(vm_,
            "kv-worker-s" + std::to_string(s.index) + "-" +
                std::to_string(widx),
            env::seed() +
                0x517cc1b727220a95ULL *
                    static_cast<std::uint64_t>(
                        s.index * 64 + static_cast<std::uint32_t>(widx) + 1));
  std::vector<char> scratch(64 * 1024);
  while (true) {
    Pending* p = nullptr;
    {
      // Blocked while waiting: GC pauses proceed without this worker.
      m.enter_blocked();
      MutexLock l(s.mu);
      s.queue_cv.wait(l, [&]() MGC_REQUIRES(s.mu) { return s.stopping || !s.queue.empty(); });
      if (!s.queue.empty()) {
        p = s.queue.front();
        s.queue.pop_front();
        s.space_cv.notify_one();
      }
      l.unlock();
      m.leave_blocked();
      if (p == nullptr) break;  // stopping and drained
    }

    Response resp;
    try {
      switch (p->req.op) {
        case OpType::kRead: {
          std::size_t len = 0;
          resp.found = s.store->get(m, p->req.key, scratch.data(),
                                    scratch.size(), &len);
          break;
        }
        case OpType::kUpdate:
        case OpType::kInsert: {
          const std::size_t len = std::min(p->req.value_len, scratch.size());
          synth_value(p->req.key, scratch.data(), len);
          std::uint64_t seq = 0;
          resp.found = s.store->put(m, p->req.key, scratch.data(), len, &seq);
          resp.seq = seq;
          if (!resp.found) resp.status = ExecStatus::kOverloaded;
          break;
        }
      }
    } catch (const OutOfMemoryError&) {
      // The allocation ladder ran dry mid-request. The request is lost but
      // the worker survives: degrade to a typed rejection, don't die.
      resp.found = false;
      resp.status = ExecStatus::kOverloaded;
    }
    completed_.fetch_add(1, std::memory_order_acq_rel);

    if (p->completion) {
      // Async path: the worker owns the Pending. Run the completion outside
      // the shard mutex — it only posts to the net layer's completion
      // queue, but must never be able to deadlock against submit paths
      // taking shard mutexes.
      p->completion(resp);
      delete p;
    } else {
      // Notify under the lock: the client owns `p` and destroys it as soon
      // as it observes done (see Vm::vm_thread_main for the same pattern).
      MutexLock g(s.mu);
      p->resp = resp;
      p->done = true;
      p->cv.notify_one();
    }
  }
}

}  // namespace mgc::kv
