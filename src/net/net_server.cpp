#include "net/net_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "net/wire.h"
#include "support/affinity.h"
#include "support/check.h"
#include "support/clock.h"
#include "support/fault.h"

namespace mgc::net {

namespace {
constexpr std::uint64_t kListenKey = 0;
constexpr std::uint64_t kWakeKey = 1;
constexpr std::uint64_t kFirstConnId = 2;
constexpr std::size_t kReadChunk = 64 * 1024;
}  // namespace

struct NetServer::Conn {
  UniqueFd fd;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;  // consumed prefix of `in`
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;  // flushed prefix of `out`
  std::size_t inflight = 0;
  bool read_closed = false;  // stop recv()ing: EOF, error, or server drain
  bool input_dead = false;   // discard buffered input: error or server drain
  bool broken = false;       // write side dead: output is discarded
  std::uint32_t interest = 0;

  std::size_t in_pending() const { return in.size() - in_off; }
  std::size_t out_pending() const { return out.size() - out_off; }
};

struct NetServer::Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t tag = 0;
  kv::Response resp;
};

// Worker-thread completion callbacks post here. The sink is shared_ptr-held
// by every callback, so even if the NetServer dies while a request is still
// executing, the late completion lands on a live (but closed) sink and is
// dropped instead of touching freed memory. One sink per loop: a completion
// always wakes the loop that owns the connection.
struct NetServer::CompletionSink {
  Mutex mu{LockRank::kNetSink, "net-sink"};
  std::vector<Completion> items MGC_GUARDED_BY(mu);
  int wake_fd MGC_GUARDED_BY(mu) = -1;  // -1 once the server has torn down

  void post(Completion&& c) {
    MutexLock g(mu);
    if (wake_fd < 0) return;  // server gone: drop the response
    items.push_back(std::move(c));
    const std::uint64_t one = 1;
    // Best effort: if the eventfd write fails the loop still sees the item
    // on its next wakeup (EAGAIN only happens with the counter saturated,
    // which itself guarantees a pending wakeup).
    // gclint: suppress(loop-purity) eventfd is EFD_NONBLOCK; write never stalls
    [[maybe_unused]] ssize_t rc = ::write(wake_fd, &one, sizeof(one));
  }
};

NetServer::NetServer(kv::RequestSink& backend, NetServerConfig cfg)
    : backend_(backend), cfg_(cfg) {
  const int nloops = std::max(1, cfg_.loops);
  loops_.reserve(static_cast<std::size_t>(nloops));
  for (int i = 0; i < nloops; ++i) {
    auto lp = std::make_unique<Loop>();
    lp->index = static_cast<std::uint32_t>(i);
    lp->next_conn_id = kFirstConnId;
    loops_.push_back(std::move(lp));
  }

  // Every loop owns a listener on the same port; with more than one loop
  // they are SO_REUSEPORT listeners and the kernel spreads connections
  // across them. Loop 0 binds first and learns the port.
  port_ = cfg_.port;
  for (auto& lp : loops_) {
    lp->listen_fd = listen_loopback(port_, cfg_.backlog,
                                    lp->index == 0 ? &port_ : nullptr,
                                    /*reuse_port=*/nloops > 1);
    MGC_CHECK_MSG(lp->listen_fd.valid(), "net: cannot listen on loopback");
  }

  for (auto& lpp : loops_) {
    Loop& lp = *lpp;
    lp.epoll_fd = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
    MGC_CHECK_MSG(lp.epoll_fd.valid(), "net: epoll_create1 failed");
    lp.wake_fd = UniqueFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    MGC_CHECK_MSG(lp.wake_fd.valid(), "net: eventfd failed");

    lp.sink = std::make_shared<CompletionSink>();
    lp.sink->wake_fd = lp.wake_fd.get();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenKey;
    MGC_CHECK(::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_ADD, lp.listen_fd.get(),
                          &ev) == 0);
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeKey;
    MGC_CHECK(::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_ADD, lp.wake_fd.get(),
                          &ev) == 0);
  }
  for (auto& lpp : loops_) {
    Loop& lp = *lpp;
    lp.thread = std::thread([this, &lp] { loop_main(lp); });
  }
}

NetServer::~NetServer() { shutdown(); }

void NetServer::shutdown() {
  MutexLock g(shutdown_mu_);
  if (stopped_) return;
  stopped_ = true;
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  for (auto& lp : loops_) {
    [[maybe_unused]] ssize_t rc =
        // gclint: suppress(loop-purity) eventfd is EFD_NONBLOCK; write never stalls
        ::write(lp->wake_fd.get(), &one, sizeof(one));
  }
  for (auto& lp : loops_) lp->thread.join();
  for (auto& lp : loops_) {
    // Detach the sink before closing the eventfd: late worker completions
    // must see a dead sink, not a recycled fd.
    {
      MutexLock sg(lp->sink->mu);
      lp->sink->wake_fd = -1;
    }
    lp->wake_fd.reset();
    lp->epoll_fd.reset();
    lp->listen_fd.reset();
  }
}

NetServerStats NetServer::stats() const {
  NetServerStats total;
  for (const NetServerStats& s : per_loop_stats()) {
    total.accepted += s.accepted;
    total.closed += s.closed;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.protocol_errors += s.protocol_errors;
    total.dropped_responses += s.dropped_responses;
  }
  return total;
}

std::vector<NetServerStats> NetServer::per_loop_stats() const {
  std::vector<NetServerStats> out;
  out.reserve(loops_.size());
  for (const auto& lp : loops_) {
    NetServerStats s;
    s.accepted = lp->accepted.load(std::memory_order_acquire);
    s.closed = lp->closed.load(std::memory_order_acquire);
    s.frames_in = lp->frames_in.load(std::memory_order_acquire);
    s.frames_out = lp->frames_out.load(std::memory_order_acquire);
    s.protocol_errors = lp->protocol_errors.load(std::memory_order_acquire);
    s.dropped_responses =
        lp->dropped_responses.load(std::memory_order_acquire);
    out.push_back(s);
  }
  return out;
}

void NetServer::loop_main(Loop& lp) {
  if (cfg_.pin_loops) {
    // Best effort — a refused pin just leaves the loop floating.
    (void)pin_this_thread(static_cast<int>(lp.index));
  }
  std::vector<epoll_event> events(64);
  for (;;) {
    const int timeout_ms = lp.draining ? 20 : -1;
    const int n =
        ::epoll_wait(lp.epoll_fd.get(), events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only possible during teardown
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (key == kListenKey) {
        accept_ready(lp);
        continue;
      }
      if (key == kWakeKey) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t rc =
            // gclint: suppress(loop-purity) eventfd is EFD_NONBLOCK; drain never stalls
            ::read(lp.wake_fd.get(), &drain, sizeof(drain));
        continue;  // completions and stop flag handled below
      }
      auto it = lp.conns.find(key);
      if (it == lp.conns.end()) continue;  // closed earlier this iteration
      Conn* c = it->second.get();
      if (ev & (EPOLLHUP | EPOLLERR)) {
        c->read_closed = true;
        c->input_dead = true;
        c->broken = true;
        c->out.clear();
        c->out_off = 0;
      }
      if (ev & EPOLLIN) on_readable(lp, c);
      if (lp.conns.find(key) == lp.conns.end()) continue;  // closed by reader
      if (ev & EPOLLOUT) flush_out(lp, c);
      if (maybe_close(lp, c)) continue;
      update_interest(lp, c);
    }

    process_completions(lp);

    if (stop_requested_.load(std::memory_order_acquire) && !lp.draining) {
      begin_drain(lp);
    }
    if (lp.draining) {
      // Reap connections that finished draining; force the rest past the
      // deadline so shutdown() always returns.
      for (auto it = lp.conns.begin(); it != lp.conns.end();) {
        Conn* c = it->second.get();
        ++it;  // destroy() erases — advance first
        flush_out(lp, c);
        maybe_close(lp, c);
      }
      if (lp.conns.empty()) break;
      if (now_ns() >= lp.drain_deadline_ns) {
        while (!lp.conns.empty()) destroy(lp, lp.conns.begin()->second.get());
        break;
      }
    }
  }
}

void NetServer::accept_ready(Loop& lp) {
  for (;;) {
    // gclint: suppress(loop-purity) listener is O_NONBLOCK; returns EAGAIN when drained
    const int fd = ::accept4(lp.listen_fd.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: back to epoll
    }
    // Scoped to the loop index: MGC_FAULT="net-accept:...,loop=K" drops
    // connections on exactly one loop of the multi-loop front-end.
    if (fault::should_fire(fault::Site::kNetAccept, lp.index)) {
      // Injected accept failure (fd exhaustion / transient ECONNABORTED):
      // the connection is dropped before registration; the client's retry
      // logic owns recovery.
      ::close(fd);
      continue;
    }
    adopt_fd(lp, fd);
  }
}

void NetServer::adopt_fd(Loop& lp, int fd) {
  set_nodelay(fd);
  auto conn = std::make_unique<Conn>();
  conn->fd = UniqueFd(fd);
  conn->id = lp.next_conn_id++;
  Conn* c = conn.get();
  lp.conns.emplace(c->id, std::move(conn));
  lp.accepted.fetch_add(1, std::memory_order_acq_rel);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c->id;
  c->interest = EPOLLIN;
  if (::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    destroy(lp, c);
  }
}

void NetServer::on_readable(Loop& lp, Conn* c) {
  while (!c->read_closed) {
    if (c->in_pending() >= cfg_.max_input_buffer) break;  // backpressure
    const std::size_t old = c->in.size();
    // Injected short read: the kernel returns one byte at a time, forcing
    // the frame decoder through every resume-from-partial-prefix path.
    const std::size_t chunk =
        fault::should_fire(fault::Site::kNetReadShort) ? 1 : kReadChunk;
    c->in.resize(old + chunk);
    // gclint: suppress(loop-purity) conn fd is SOCK_NONBLOCK; recv returns EAGAIN
    const ssize_t n = ::recv(c->fd.get(), c->in.data() + old, chunk, 0);
    if (n > 0) {
      c->in.resize(old + static_cast<std::size_t>(n));
      continue;
    }
    c->in.resize(old);
    if (n == 0) {
      // Orderly EOF. Requests already buffered (a client may half-close
      // its send side and keep reading) are still decoded and executed;
      // only then does the connection wind down.
      c->read_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c->read_closed = true;  // hard error: treat both directions as dead
    c->input_dead = true;
    c->broken = true;
    c->out.clear();
    c->out_off = 0;
    break;
  }
  process_input(lp, c);
}

void NetServer::process_input(Loop& lp, Conn* c) {
  while (!c->input_dead) {
    DecodedFrame df;
    std::size_t consumed = 0;
    const DecodeResult r =
        decode_any(c->in.data() + c->in_off, c->in_pending(), &consumed, &df);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kRequest) {
      if (c->inflight >= cfg_.max_inflight_per_conn) break;
      c->in_off += consumed;
      lp.frames_in.fetch_add(1, std::memory_order_acq_rel);
      c->inflight++;
      submit_one(lp, c, df.req.tag, df.req.req);
      continue;
    }
    if (r == DecodeResult::kBatchRequest) {
      // Admission is all-or-nothing per batch (sub-requests count like
      // single frames). An idle connection may overshoot the in-flight cap
      // so a window larger than the cap still makes progress; otherwise
      // the batch stays buffered until completions free room.
      const std::size_t n = df.batch_req.size();
      if (c->inflight != 0 &&
          c->inflight + n > cfg_.max_inflight_per_conn) {
        break;
      }
      c->in_off += consumed;
      lp.frames_in.fetch_add(n, std::memory_order_acq_rel);
      c->inflight += n;
      for (const RequestFrame& rf : df.batch_req) {
        submit_one(lp, c, rf.tag, rf.req);
      }
      continue;
    }
    // Malformed frame, or a client sending response frames: drop this
    // connection (after flushing whatever it is still owed) without
    // disturbing the rest of the loop.
    lp.protocol_errors.fetch_add(1, std::memory_order_acq_rel);
    c->read_closed = true;
    c->input_dead = true;
    c->in.clear();
    c->in_off = 0;
    break;
  }
  // Compact once the consumed prefix dominates the buffer.
  if (c->in_off > 0 && (c->in_off >= c->in.size() || c->in_off > kReadChunk)) {
    c->in.erase(c->in.begin(),
                c->in.begin() + static_cast<std::ptrdiff_t>(c->in_off));
    c->in_off = 0;
  }
}

void NetServer::submit_one(Loop& lp, Conn* c, std::uint64_t tag,
                           const kv::Request& req) {
  const std::uint64_t conn_id = c->id;
  std::shared_ptr<CompletionSink> sink = lp.sink;
  const kv::SubmitResult sr = backend_.try_submit(
      req, [sink, conn_id, tag](const kv::Response& resp) {
        sink->post(Completion{conn_id, tag, resp});
      });
  if (sr != kv::SubmitResult::kAccepted) {
    // Rejected without executing: answer directly with the typed status —
    // kShutdown (backend stopping under us), kOverloaded (load shed under
    // GC pressure; the client backs off and retries), or kNotLeader (a
    // replication follower refusing a write; the client re-routes).
    c->inflight--;
    kv::Response resp;
    switch (sr) {
      case kv::SubmitResult::kShutdown:
        resp.status = kv::ExecStatus::kShutdown;
        break;
      case kv::SubmitResult::kNotLeader:
        resp.status = kv::ExecStatus::kNotLeader;
        break;
      default:
        resp.status = kv::ExecStatus::kOverloaded;
        break;
    }
    enqueue_response(lp, c, tag, resp);
  }
}

void NetServer::enqueue_response(Loop& lp, Conn* c, std::uint64_t tag,
                                 const kv::Response& r) {
  if (c->broken) {
    lp.dropped_responses.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  ResponseFrame f;
  f.tag = tag;
  f.status = r.status;
  f.found = r.found;
  encode_response(f, c->out);
  lp.frames_out.fetch_add(1, std::memory_order_acq_rel);
  flush_out(lp, c);
}

void NetServer::flush_out(Loop& /*lp*/, Conn* c) {
  while (c->out_pending() > 0 && !c->broken) {
    if (fault::should_fire(fault::Site::kNetEpipe)) {
      // Injected EPIPE: the peer reset mid-write. Same path as a real send
      // failure below — the rest of the output is discarded.
      c->broken = true;
      c->out.clear();
      c->out_off = 0;
      return;
    }
    // Injected short write: a one-byte send window forces clients through
    // their partial-frame reassembly paths.
    const std::size_t len = fault::should_fire(fault::Site::kNetWriteShort)
                                ? 1
                                : c->out_pending();
    // gclint: suppress(loop-purity) conn fd is SOCK_NONBLOCK; send returns EAGAIN
    const ssize_t n = ::send(c->fd.get(), c->out.data() + c->out_off, len,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c->broken = true;  // peer reset: discard the rest
    c->out.clear();
    c->out_off = 0;
    return;
  }
  if (c->out_pending() == 0) {
    c->out.clear();
    c->out_off = 0;
  }
}

void NetServer::process_completions(Loop& lp) {
  std::vector<Completion> items;
  {
    MutexLock g(lp.sink->mu);
    items.swap(lp.sink->items);
  }
  for (const Completion& comp : items) {
    auto it = lp.conns.find(comp.conn_id);
    if (it == lp.conns.end()) {
      // Client went away mid-request: the worker already freed the pending
      // slot; the response just has nowhere to go.
      lp.dropped_responses.fetch_add(1, std::memory_order_acq_rel);
      continue;
    }
    Conn* c = it->second.get();
    MGC_CHECK(c->inflight > 0);
    c->inflight--;
    enqueue_response(lp, c, comp.tag, comp.resp);
    // An in-flight slot freed: parked bytes in the input buffer may now be
    // decodable again.
    process_input(lp, c);
    if (!maybe_close(lp, c)) update_interest(lp, c);
  }
}

void NetServer::update_interest(Loop& lp, Conn* c) {
  const bool want_read = !c->read_closed &&
                         c->inflight < cfg_.max_inflight_per_conn &&
                         c->in_pending() < cfg_.max_input_buffer;
  const bool want_write = c->out_pending() > 0 && !c->broken;
  const std::uint32_t mask =
      (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (mask == c->interest) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = c->id;
  if (::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(), &ev) == 0) {
    c->interest = mask;
  }
}

void NetServer::begin_drain(Loop& lp) {
  lp.draining = true;
  lp.drain_deadline_ns =
      now_ns() + static_cast<std::int64_t>(cfg_.drain_timeout_ms) * 1000000;
  // Stop accepting new connections.
  ::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_DEL, lp.listen_fd.get(), nullptr);
  // Stop reading new requests; in-flight ones finish and get flushed. A
  // half-received request frame is simply discarded with the connection.
  for (auto& [id, conn] : lp.conns) {
    Conn* c = conn.get();
    c->read_closed = true;
    c->input_dead = true;
    c->in.clear();
    c->in_off = 0;
    ::shutdown(c->fd.get(), SHUT_RD);
    update_interest(lp, c);
  }
}

bool NetServer::maybe_close(Loop& lp, Conn* c) {
  const bool flushed = c->broken || c->out_pending() == 0;
  if (c->read_closed && c->inflight == 0 && flushed) {
    destroy(lp, c);
    return true;
  }
  return false;
}

void NetServer::destroy(Loop& lp, Conn* c) {
  lp.closed.fetch_add(1, std::memory_order_acq_rel);
  ::epoll_ctl(lp.epoll_fd.get(), EPOLL_CTL_DEL, c->fd.get(), nullptr);
  lp.conns.erase(c->id);  // frees c (and closes the fd via UniqueFd)
}

}  // namespace mgc::net
