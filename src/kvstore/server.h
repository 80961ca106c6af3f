// The database server: shard-per-core worker groups (VM mutators), each
// draining its own bounded request queue in front of its own store shard.
// Clients (plain, non-mutator threads — they model the remote YCSB box)
// submit requests synchronously and measure latency around the call, so
// server-side stop-the-world pauses surface directly as client-visible
// latency spikes (paper §4.2).
//
// Sharding model: requests are routed by key hash to the shard that owns
// the key (ShardedStore::shard_of). Each shard is shared-nothing — its
// queue, its condition variables, its workers, and its store (memtable +
// commit log + sstables) are touched by no other shard — so the request
// path scales with cores instead of serializing on one queue mutex. A
// one-shard ShardedStore is the degenerate case: one queue, one worker
// group, one store.
//
// Two submission paths share each shard's queue and workers:
//   * execute()    — synchronous in-process call; blocks while the shard's
//                    queue is full (admission control), then until the
//                    request ran. Wakes with ExecStatus::kShutdown if the
//                    server stops while the caller is blocked.
//   * try_submit() — asynchronous, used by the net::NetServer front-end;
//                    enqueues and returns immediately, the completion
//                    callback runs on a worker thread of the owning shard.
//                    Async submissions are not flow-controlled on the
//                    queue capacity — the net layer applies its own
//                    bounded in-flight admission control and must not
//                    block its event loops here — but both paths SHED
//                    (kOverloaded) per shard when that shard's queue is
//                    full while the heap is near capacity, so a GC death
//                    spiral degrades into typed rejections instead of a
//                    convoy, and a single hot shard sheds without taking
//                    the healthy shards down with it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "kvstore/sharded_store.h"
#include "kvstore/store.h"
#include "support/mutex.h"

namespace mgc::kv {

enum class OpType : std::uint8_t { kRead, kUpdate, kInsert };

struct Request {
  OpType op = OpType::kRead;
  std::uint64_t key = 0;
  std::size_t value_len = 0;  // for updates/inserts
};

enum class ExecStatus : std::uint8_t {
  kOk = 0,
  kShutdown = 1,    // rejected: server was stopping
  kOverloaded = 2,  // shed: queue full under GC pressure, or the request
                    // failed in a retryable way (commit-log write failure,
                    // worker OutOfMemoryError). Clients should back off.
  kNotLeader = 3,   // write sent to a replication follower; retry against
                    // another node (repl::ReplClient rotates on this)
};

struct Response {
  bool found = false;
  ExecStatus status = ExecStatus::kOk;
  // Replication sequence number the write committed at (0 for reads,
  // failures, and unreplicated stores). In-process only — the wire
  // response does not carry it; repl::Node consumes it before the frame
  // is encoded.
  std::uint64_t seq = 0;
};

// Deterministic value bytes derived from the key — what the server workers
// store for every write. Replication streams only {key, value_len}: every
// replica regenerates identical value bytes from the key, so append frames
// stay fixed-size regardless of row size.
inline void synth_value(std::uint64_t key, char* out, std::size_t len) {
  const std::size_t n = len < 16 ? len : 16;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(key >> (i % 8));
  }
}

// Outcome of an asynchronous try_submit(). On kAccepted the completion runs
// exactly once on a worker thread; on any rejection it never runs.
enum class SubmitResult : std::uint8_t {
  kAccepted = 0,
  kShutdown = 1,    // server is stopping
  kOverloaded = 2,  // shed: the owning shard's queue is at capacity while
                    // the heap is near-full
  kNotLeader = 3,   // replication follower rejecting a write (repl::Node)
};

// Abstract asynchronous submission surface: what the socket front-end
// (net::NetServer) drives. kv::Server implements it directly; repl::Node
// wraps a Server per replica to intercept writes for quorum replication
// and gate follower reads on staleness, without the net layer knowing.
class RequestSink {
 public:
  using CompletionFn = std::function<void(const Response&)>;
  virtual ~RequestSink() = default;
  // On kAccepted the completion runs exactly once on some non-event-loop
  // thread; on any rejection it never runs. Must not block: event loops
  // call this directly.
  virtual SubmitResult try_submit(const Request& req, CompletionFn done) = 0;
};

struct ServerConfig {
  int workers_per_shard = 1;
  std::size_t queue_capacity = 256;  // per shard
  // Pin shard i's workers to core i (mod allowed cores; support/affinity).
  // Best effort — refusals fall back to floating workers.
  bool pin_workers = false;
};

class Server : public RequestSink {
 public:
  using CompletionFn = RequestSink::CompletionFn;

  // Shard-per-core server: one worker group and one bounded queue per
  // shard of `store`. The ShardedStore must outlive the server.
  Server(Vm& vm, ShardedStore& store, ServerConfig cfg = {});

  ~Server() override;

  // Stops accepting work, wakes clients blocked on full queues (they get
  // ExecStatus::kShutdown), drains requests already queued, and joins the
  // workers of every shard. Idempotent; the destructor calls it. Callers
  // that keep client threads running may invoke it explicitly and only
  // destroy the server once those threads have observed the rejection.
  void shutdown();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Synchronous call from a client thread; routed to the owning shard.
  // Blocks while that shard's queue is full (admission control), then
  // until a worker has executed the request. If the server starts stopping
  // while the caller is blocked on a full queue, returns a Response with
  // status == ExecStatus::kShutdown instead of hanging (requests already
  // queued are still drained and completed). Sheds load per shard
  // (ExecStatus::kOverloaded, without blocking) when the shard's queue is
  // full while the heap is near capacity.
  Response execute(const Request& req);

  // Asynchronous submission for the socket front-end; routed to the owning
  // shard. On kAccepted, `done` is invoked exactly once on one of that
  // shard's worker threads after the request executes; on kShutdown /
  // kOverloaded it never runs.
  SubmitResult try_submit(const Request& req, CompletionFn done) override;

  std::size_t shard_count() const { return shards_.size(); }
  // The shard execute()/try_submit() would route `key` to.
  std::size_t shard_of_key(std::uint64_t key) const;

  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  // Requests shed (kOverloaded at admission) by one shard — the per-shard
  // isolation tests and the scaling bench read these.
  std::uint64_t shed_count(std::size_t shard) const;

 private:
  struct Pending {
    Request req;
    Response resp;        // resp/done are guarded by the owning shard's mu
    bool done = false;
    CondVar cv;           // sync path: client waits here (on the shard's mu)
    CompletionFn completion;  // async path: set => heap-owned, worker frees
  };

  // One shared-nothing shard: queue + cvs + workers + store. Never touched
  // by another shard's workers.
  struct Shard {
    std::uint32_t index = 0;
    Store* store = nullptr;
    Mutex mu{LockRank::kKvShard, "kv-shard"};
    CondVar queue_cv;  // workers wait for work
    CondVar space_cv;  // sync clients wait for queue space
    std::deque<Pending*> queue MGC_GUARDED_BY(mu);
    bool stopping MGC_GUARDED_BY(mu) = false;
    std::atomic<std::uint64_t> shed{0};
    std::vector<std::thread> workers;
  };

  void worker_main(Shard& s, int widx);
  // True when the heap is close enough to capacity that queueing more work
  // would only deepen the collection spiral (shed instead).
  bool under_gc_pressure() const;

  Vm& vm_;
  ShardedStore& store_;
  ServerConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> completed_{0};
  Mutex shutdown_mu_{LockRank::kKvShutdown, "kv-shutdown"};
  bool stopped_ MGC_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace mgc::kv
