// Fault injection against the epoll front-end: clients that disconnect
// mid-request, half-written frames at shutdown, and shutdown racing live
// traffic. Runs under the `stress` ctest label so the TSan job covers the
// event-loop vs. worker-pool handoff (completion queue, eventfd wakeups,
// connection teardown while requests are in flight).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "kvstore/server.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "support/units.h"

namespace mgc::net {
namespace {

VmConfig small_cfg() {
  VmConfig c;
  c.gc = GcKind::kParNew;
  c.heap_bytes = 24 * MiB;
  c.young_bytes = 6 * MiB;
  c.gc_threads = 2;
  return c;
}

// Polls `cond` for up to `ms` milliseconds.
bool eventually(int ms, const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

TEST(NetFault, DisconnectMidRequestDropsConnectionNotServer) {
  VmConfig cfg = small_cfg();
  Vm vm(cfg);
  kv::StoreConfig scfg = kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 2});
  NetServer net(server);

  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    UniqueFd fd = connect_tcp("127.0.0.1", net.port());
    ASSERT_TRUE(fd.valid());
    // A valid request, then vanish without reading the response. The
    // worker still executes it; the loop must drop the completion and reap
    // the connection instead of leaking the in-flight slot.
    RequestFrame f;
    f.req.op = kv::OpType::kInsert;
    f.req.key = static_cast<std::uint64_t>(i);
    f.req.value_len = 64;
    f.tag = static_cast<std::uint64_t>(i) + 1;
    std::vector<std::uint8_t> bytes;
    encode_request(f, bytes);
    ASSERT_TRUE(send_all(fd.get(), bytes.data(), bytes.size()));
    fd.reset();  // immediate close, response still in flight
  }

  // Every abandoned request still executed on the backend...
  ASSERT_TRUE(eventually(5000, [&] {
    return server.completed() >= static_cast<std::uint64_t>(kRounds);
  })) << "abandoned requests never executed";

  // ...every connection gets reaped (no leaked pending slots keeping them
  // alive), and the accept loop is not wedged: a fresh client still works.
  ASSERT_TRUE(eventually(5000, [&] {
    const NetServerStats s = net.stats();
    return s.closed == s.accepted && s.accepted >= kRounds;
  })) << "connections leaked: " << net.stats().closed << "/"
      << net.stats().accepted;

  BlockingClient survivor("127.0.0.1", net.port());
  ASSERT_TRUE(survivor.connected());
  kv::Request req;
  req.op = kv::OpType::kRead;
  req.key = 0;
  ResponseFrame resp;
  ASSERT_TRUE(survivor.call(req, &resp));
  EXPECT_TRUE(resp.found) << "insert from a disconnected client was lost";

  net.shutdown();
  const NetServerStats s = net.stats();
  EXPECT_EQ(s.frames_in, static_cast<std::uint64_t>(kRounds) + 1);
  // Responses to vanished clients are dropped (the completion arrives
  // after the connection died) or written into a broken socket; either
  // way they must be accounted, not leaked.
  EXPECT_EQ(s.closed, s.accepted);
}

TEST(NetFault, HalfWrittenFrameAtShutdownDoesNotWedgeDrain) {
  VmConfig cfg = small_cfg();
  Vm vm(cfg);
  kv::StoreConfig scfg = kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 2});
  auto net = std::make_unique<NetServer>(server);
  const std::uint16_t port = net->port();

  // Connection A: a half-written request frame (first 7 of 28 bytes).
  UniqueFd half = connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(half.valid());
  RequestFrame f;
  f.req.op = kv::OpType::kInsert;
  f.req.key = 9;
  f.req.value_len = 64;
  f.tag = 77;
  std::vector<std::uint8_t> bytes;
  encode_request(f, bytes);
  ASSERT_TRUE(send_all(half.get(), bytes.data(), 7));

  // Connection B: a complete request whose response we deliberately do not
  // read until after shutdown — the drain must flush it first.
  UniqueFd pending = connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(pending.valid());
  RequestFrame g = f;
  g.req.key = 10;
  g.tag = 78;
  std::vector<std::uint8_t> gbytes;
  encode_request(g, gbytes);
  ASSERT_TRUE(send_all(pending.get(), gbytes.data(), gbytes.size()));
  // Make sure the frame reached the loop before the drain starts.
  ASSERT_TRUE(eventually(5000, [&] { return net->stats().frames_in >= 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  net->shutdown();  // must drain B, discard A's partial frame, and return
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "drain hit the force-close deadline";

  // B's response was flushed before its connection closed.
  std::vector<std::uint8_t> acc;
  for (;;) {
    std::uint8_t chunk[64];
    const ssize_t n = recv_some(pending.get(), chunk, sizeof(chunk));
    if (n <= 0) break;
    acc.insert(acc.end(), chunk, chunk + n);
  }
  DecodedFrame df;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_any(acc.data(), acc.size(), &consumed, &df),
            DecodeResult::kResponse);
  EXPECT_EQ(df.resp.tag, 78u);
  EXPECT_TRUE(df.resp.found);

  // A got EOF without a response (its frame never completed).
  std::uint8_t buf[16];
  EXPECT_EQ(recv_some(half.get(), buf, sizeof(buf)), 0);

  const NetServerStats s = net->stats();
  EXPECT_EQ(s.closed, s.accepted);
  net.reset();
}

TEST(NetFault, ShutdownUnderLiveTrafficNeverHangs) {
  VmConfig cfg = small_cfg();
  Vm vm(cfg);
  kv::StoreConfig scfg = kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 3});
  NetServer net(server);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_calls{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient cl("127.0.0.1", net.port());
      if (!cl.connected()) return;
      std::uint64_t key = static_cast<std::uint64_t>(c) << 32;
      while (!stop.load(std::memory_order_acquire)) {
        kv::Request req;
        req.op = kv::OpType::kInsert;
        req.key = key++;
        req.value_len = 64;
        ResponseFrame resp;
        // After shutdown begins the transport fails (EOF) — that is the
        // expected way out of the loop.
        if (!cl.call(req, &resp)) break;
        if (resp.status == kv::ExecStatus::kOk) ok_calls.fetch_add(1);
      }
    });
  }

  // Let traffic flow, then pull the plug mid-flight.
  ASSERT_TRUE(eventually(5000, [&] { return ok_calls.load() > 200; }));
  net.shutdown();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  const NetServerStats s = net.stats();
  EXPECT_EQ(s.closed, s.accepted);
  EXPECT_GE(server.completed(), ok_calls.load());
  // Drain semantics: every response the server encoded corresponds to a
  // request it decoded; nothing in flight was dropped on the floor
  // (dropped_responses only counts clients that themselves vanished).
  EXPECT_EQ(s.frames_out + s.dropped_responses, s.frames_in);
}

}  // namespace
}  // namespace mgc::net
