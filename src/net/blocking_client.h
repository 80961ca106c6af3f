// Synchronous one-connection client for the kv wire protocol: the
// transport behind ycsb::Client. One BlockingClient per client thread,
// blocking send/recv — the round-trip the caller times therefore includes
// the socket path plus whatever the server-side GC is doing. Two shapes of
// in-flight window:
//
//   * call()/execute()            — one request in flight (exactly the
//     YCSB closed-loop model);
//   * submit_batch()/execute_batch() — a pipelined window: one version-2
//     batch frame carries the whole window, responses stream back in any
//     order (the sharded server answers per shard) and are matched by tag.
//
// Failure handling mirrors a real YCSB client box: every socket op runs
// under a timeout, a transport failure tears the connection down, and
// execute() retries with a fresh connection under capped exponential
// backoff. kOverloaded responses (server-side load shedding) are also
// backed off and retried — they are the server asking for exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "support/rng.h"

namespace mgc::net {

// Governs execute()'s retry loop. The defaults keep tests fast while still
// riding out a multi-second server-side full GC.
struct RetryPolicy {
  int max_attempts = 5;         // total call attempts before giving up
  int timeout_ms = 2000;        // per-socket-op SO_RCVTIMEO/SO_SNDTIMEO
  int backoff_initial_ms = 10;  // delay before the first retry
  int backoff_cap_ms = 500;     // exponential backoff ceiling
  // Decorrelated jitter: after the first retry each delay is drawn
  // uniformly from [backoff_initial_ms, 3 * previous_delay], capped at
  // backoff_cap_ms. Pure exponential backoff synchronizes the retry
  // storms of every client that observed the same failover at the same
  // moment; jitter spreads them out. The draw comes from a client-local
  // RNG seeded with jitter_seed, so fault-replay runs that fix the seed
  // reproduce the exact same retry schedule.
  std::uint64_t jitter_seed = 0x6d67632d6a697401ULL;
};

class BlockingClient {
 public:
  BlockingClient(const std::string& host, std::uint16_t port,
                 RetryPolicy policy = {});

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool connected() const { return fd_.valid(); }

  // One round trip: sends `req` with a fresh tag, blocks for the response.
  // Returns false on transport failure (connection reset / EOF / timeout /
  // protocol violation from the server side) and invalidates the
  // connection; *out is filled on success, including the echoed tag so
  // callers can verify responses are not cross-wired. No retries — this is
  // the single-attempt primitive execute() builds on.
  bool call(const kv::Request& req, ResponseFrame* out);

  // Reconnects if the connection is down, then performs exactly one
  // call(). For callers that run their own retry/redirect policy across
  // several servers (repl::ReplClient rotating through a replica set) —
  // execute() below retries against this one address only.
  bool call_once(const kv::Request& req, ResponseFrame* out);

  // Retrying wrapper: reconnects and backs off on transport failure, backs
  // off and resends on kOverloaded. Returns the last server response, or a
  // Response with status == ExecStatus::kShutdown if the transport never
  // produced one — it never aborts the process.
  kv::Response execute(const kv::Request& req);

  // Pipelined round trip: sends all of `reqs` as version-2 batch frames
  // (windows larger than kMaxBatchCount are split), then blocks until every
  // tag has been answered — responses may arrive as any mix of single and
  // batch frames, in any order. On success *out holds one ResponseFrame per
  // request, index-aligned with `reqs` (re-ordered by tag). Returns false
  // on transport failure or a response carrying an unknown/duplicate tag,
  // and invalidates the connection. Single-attempt primitive, like call().
  bool submit_batch(const std::vector<kv::Request>& reqs,
                    std::vector<ResponseFrame>* out);

  // Retrying wrapper over submit_batch: reconnects and resends the whole
  // outstanding window on transport failure, backs off and resends only the
  // shed (kOverloaded) subset otherwise. Returns one Response per request,
  // index-aligned; entries the transport never answered carry
  // ExecStatus::kShutdown. Never aborts the process.
  std::vector<kv::Response> execute_batch(const std::vector<kv::Request>& reqs);

  std::uint64_t last_tag() const { return next_tag_ - 1; }
  // Retry-loop introspection for tests and stats.
  std::uint64_t retries() const { return retries_; }
  std::uint64_t reconnects() const { return reconnects_; }

  // The delay to sleep before the retry after one that slept `prev_ms`
  // (pass backoff_initial_ms for the first). Public so tests can check
  // the jittered schedule is deterministic and bounded without timing
  // real sleeps.
  int next_backoff_ms(int prev_ms);

 private:
  // Drops the current connection (and any half-read response bytes) and
  // dials a new one. False if the server is unreachable.
  bool reconnect();
  // Blocks until one whole frame is buffered, then decodes and consumes
  // it. kError covers a malformed frame and a dead or timed-out socket;
  // the caller tears the connection down.
  DecodeResult read_frame(DecodedFrame* df);

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  UniqueFd fd_;
  std::uint64_t next_tag_;
  std::vector<std::uint8_t> wbuf_;
  std::vector<std::uint8_t> rbuf_;
  std::size_t roff_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  Rng jitter_rng_;
};

}  // namespace mgc::net
