// Epoll-based TCP front-end for kv::Server (paper §4.2's network path).
//
// One or more event-loop threads own disjoint sets of connections:
// non-blocking accept, read, decode, submit, encode, write. Execution
// itself happens on the kv::Server's per-shard worker pools (the VM
// mutators); workers hand results back via the owning loop's completion
// queue + eventfd wakeup, so loop threads never touch the managed heap and
// never block a safepoint — they play the role of the paper's network
// stack, not of application threads.
//
// Multi-loop front-end (cfg.loops > 1): every loop binds its own
// SO_REUSEPORT listener on the same port, and the kernel spreads incoming
// connections across loops with no shared accept lock. A connection lives
// and dies on the loop that accepted it: its buffers, its epoll
// registration, and its completion sink are single-threaded state.
//
// Both protocol versions are served: single-op frames and version-2 batch
// (pipelined) request frames. A batch of N sub-requests counts as N frames
// for stats and admission control, and is answered with N single response
// frames (possibly interleaved across shards, in any order) — the
// per-loop drain invariant frames_out + dropped_responses == frames_in
// counts sub-frames on both sides.
//
// Backpressure / admission control: each connection may have at most
// max_inflight_per_conn requests submitted; past that the loop stops
// decoding (and, once the input buffer fills, stops reading) until
// completions drain. A batch is admitted whole once the connection has
// room for it (an idle connection may overshoot so an oversized window
// still makes progress). Total in-flight work is therefore bounded per
// loop, which is what keeps the shard queues finite without ever blocking
// an event loop.
//
// Shutdown is graceful: stop accepting, stop reading new requests, let
// in-flight requests finish, flush every response, then close. A drain deadline force-closes stragglers so
// shutdown() always returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kvstore/server.h"
#include "net/socket.h"
#include "support/mutex.h"

namespace mgc::net {

struct NetServerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned loopback port
  int backlog = 128;
  std::size_t max_inflight_per_conn = 64;
  std::size_t max_input_buffer = 1 << 20;  // per-connection decode buffer cap
  int drain_timeout_ms = 5000;             // graceful-shutdown deadline
  int loops = 1;                           // event-loop thread count
  // Pin loop i to core i (mod allowed cores; support/affinity). Best
  // effort.
  bool pin_loops = false;
};

struct NetServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;          // well-formed requests decoded
                                        // (batch sub-requests counted)
  std::uint64_t frames_out = 0;         // responses encoded for the wire
  std::uint64_t protocol_errors = 0;    // malformed frames (connection dropped)
  std::uint64_t dropped_responses = 0;  // completions whose connection died
};

class NetServer {
 public:
  // Binds and starts the event loops; aborts (MGC_CHECK) if any loop's
  // loopback listen socket cannot be created — tests and benches cannot
  // proceed. The
  // backend is any RequestSink: a kv::Server directly, or a repl::Node
  // interposing replication in front of one.
  explicit NetServer(kv::RequestSink& backend, NetServerConfig cfg = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::size_t loop_count() const { return loops_.size(); }

  // Graceful shutdown (idempotent): drains in-flight requests, flushes
  // responses, closes connections, joins every loop thread.
  void shutdown();

  NetServerStats stats() const;  // summed across loops
  // One entry per loop, index-aligned with the loop's fault scope. The
  // per-loop drain invariant (frames_out + dropped_responses == frames_in
  // after shutdown) holds entry by entry, not just in aggregate.
  std::vector<NetServerStats> per_loop_stats() const;

 private:
  struct Conn;
  struct Completion;
  struct CompletionSink;

  // One event loop: its own epoll, wakeup eventfd, listener, connection
  // table, completion sink, and stats. Only its own thread touches any of
  // it.
  struct Loop {
    std::uint32_t index = 0;
    UniqueFd listen_fd;
    UniqueFd epoll_fd;
    UniqueFd wake_fd;
    std::shared_ptr<CompletionSink> sink;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::uint64_t next_conn_id = 0;
    bool draining = false;
    std::int64_t drain_deadline_ns = 0;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> dropped_responses{0};

    std::thread thread;
  };

  void loop_main(Loop& lp);
  void accept_ready(Loop& lp);
  // Registers an accepted fd with `lp` (it becomes a Conn on lp's epoll).
  void adopt_fd(Loop& lp, int fd);
  void on_readable(Loop& lp, Conn* c);
  void process_input(Loop& lp, Conn* c);
  void submit_one(Loop& lp, Conn* c, std::uint64_t tag,
                  const kv::Request& req);
  void flush_out(Loop& lp, Conn* c);
  void process_completions(Loop& lp);
  void update_interest(Loop& lp, Conn* c);
  void begin_drain(Loop& lp);
  bool maybe_close(Loop& lp, Conn* c);  // true if the connection was destroyed
  void destroy(Loop& lp, Conn* c);
  void enqueue_response(Loop& lp, Conn* c, std::uint64_t tag,
                        const kv::Response& r);

  kv::RequestSink& backend_;
  NetServerConfig cfg_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<bool> stop_requested_{false};
  Mutex shutdown_mu_{LockRank::kNetShutdown, "net-shutdown"};
  bool stopped_ MGC_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace mgc::net
