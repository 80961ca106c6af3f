// Loopback integration: M client threads x K ops against the epoll TCP
// front-end. Verifies per-client response counts, that responses are never
// cross-wired (the echoed tag must match the request, and read-your-own-
// writes must hold per thread), and that the backend's completed() count
// matches the sum of what the clients saw.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
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

struct Rig {
  VmConfig cfg;
  Vm vm;
  kv::StoreConfig scfg;
  kv::ShardedStore store;
  kv::Server server;

  explicit Rig(int workers = 3, std::size_t queue_capacity = 64)
      : cfg(make_cfg()),
        vm(cfg),
        scfg(kv::StoreConfig::default_config(cfg.heap_bytes)),
        store(vm, scfg, /*shards=*/1),
        server(vm, store,
               {.workers_per_shard = workers,
                .queue_capacity = queue_capacity}) {}

  static VmConfig make_cfg() {
    VmConfig c;
    c.gc = GcKind::kParNew;
    c.heap_bytes = 24 * MiB;
    c.young_bytes = 6 * MiB;
    c.gc_threads = 2;
    return c;
  }
};

TEST(NetLoopback, MultiClientCountsAndTagIntegrity) {
  Rig rig;
  NetServer net(rig.server);
  ASSERT_GT(net.port(), 0);

  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 400;
  std::atomic<std::uint64_t> responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient cl("127.0.0.1", net.port());
      ASSERT_TRUE(cl.connected());
      std::uint64_t expected_tag = 0;
      for (int i = 0; i < kOpsPerClient; ++i) {
        // Thread-private key space: read-your-own-writes proves responses
        // came from this connection's requests, not another client's.
        // Insert at even i, read the same key back at the following odd i.
        const std::uint64_t key =
            static_cast<std::uint64_t>(c) * 1000000 +
            static_cast<std::uint64_t>((i / 2) % 50);
        kv::Request req;
        if (i % 2 == 0) {
          req.op = kv::OpType::kInsert;
          req.key = key;
          req.value_len = 128;
        } else {
          req.op = kv::OpType::kRead;
          req.key = key;  // the insert directly before it
        }
        ResponseFrame resp;
        if (!cl.call(req, &resp)) {
          failures.fetch_add(1);
          return;
        }
        // BlockingClient's tags are sequential from 1; any cross-wired
        // response breaks the sequence.
        ++expected_tag;
        EXPECT_EQ(resp.tag, expected_tag);
        EXPECT_EQ(resp.status, kv::ExecStatus::kOk);
        if (req.op == kv::OpType::kRead) {
          EXPECT_TRUE(resp.found) << "lost our own insert of key " << key;
        }
        responses.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(responses.load(),
            static_cast<std::uint64_t>(kClients) * kOpsPerClient);
  EXPECT_EQ(rig.server.completed(), responses.load());

  net.shutdown();
  const NetServerStats s = net.stats();
  EXPECT_EQ(s.frames_in, responses.load());
  EXPECT_EQ(s.frames_out, responses.load());
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.closed, s.accepted);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.dropped_responses, 0u);
}

TEST(NetLoopback, PartialFramesAcrossWritesAndBatchedFrames) {
  Rig rig(/*workers=*/2);
  NetServer net(rig.server);

  UniqueFd fd = connect_tcp("127.0.0.1", net.port());
  ASSERT_TRUE(fd.valid());

  // One request dribbled a byte at a time: the server must buffer the
  // partial frame and answer once it completes.
  RequestFrame rf;
  rf.req.op = kv::OpType::kInsert;
  rf.req.key = 7;
  rf.req.value_len = 32;
  rf.tag = 42;
  std::vector<std::uint8_t> bytes;
  encode_request(rf, bytes);
  for (std::uint8_t b : bytes) {
    ASSERT_TRUE(send_all(fd.get(), &b, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  auto read_response = [&](ResponseFrame* out) {
    std::vector<std::uint8_t> acc;
    for (;;) {
      DecodedFrame df;
      std::size_t consumed = 0;
      const DecodeResult r =
          decode_any(acc.data(), acc.size(), &consumed, &df);
      if (r == DecodeResult::kResponse) {
        acc.erase(acc.begin(), acc.begin() + static_cast<long>(consumed));
        *out = df.resp;
        return true;
      }
      if (r != DecodeResult::kNeedMore) return false;
      std::uint8_t chunk[256];
      const ssize_t n = recv_some(fd.get(), chunk, sizeof(chunk));
      if (n <= 0) return false;
      acc.insert(acc.end(), chunk, chunk + n);
    }
  };

  ResponseFrame resp;
  ASSERT_TRUE(read_response(&resp));
  EXPECT_EQ(resp.tag, 42u);
  EXPECT_TRUE(resp.found);

  // Several frames in one write: each must be answered exactly once.
  std::vector<std::uint8_t> batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    RequestFrame f;
    f.req.op = kv::OpType::kRead;
    f.req.key = 7;
    f.tag = 100 + i;
    encode_request(f, batch);
  }
  ASSERT_TRUE(send_all(fd.get(), batch.data(), batch.size()));
  // Responses may be coalesced; read them off one decode at a time. They
  // arrive in completion order (two workers may finish out of submission
  // order), and clients match them by tag, so compare the tag multiset.
  std::vector<std::uint8_t> acc;
  std::multiset<std::uint64_t> tags;
  for (int i = 0; i < 5; ++i) {
    DecodedFrame df;
    for (;;) {
      std::size_t consumed = 0;
      const DecodeResult r =
          decode_any(acc.data(), acc.size(), &consumed, &df);
      if (r == DecodeResult::kResponse) {
        acc.erase(acc.begin(), acc.begin() + static_cast<long>(consumed));
        break;
      }
      ASSERT_EQ(r, DecodeResult::kNeedMore);
      std::uint8_t chunk[256];
      const ssize_t n = recv_some(fd.get(), chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      acc.insert(acc.end(), chunk, chunk + n);
    }
    tags.insert(df.resp.tag);
    EXPECT_TRUE(df.resp.found) << "tag " << df.resp.tag;
  }
  EXPECT_EQ(tags, (std::multiset<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(NetLoopback, MalformedFrameClosesOnlyThatConnection) {
  Rig rig(/*workers=*/2);
  NetServer net(rig.server);

  BlockingClient good("127.0.0.1", net.port());
  ASSERT_TRUE(good.connected());

  UniqueFd bad = connect_tcp("127.0.0.1", net.port());
  ASSERT_TRUE(bad.valid());
  // An oversized length prefix — rejected at the framing layer.
  const std::uint8_t evil[8] = {0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4};
  ASSERT_TRUE(send_all(bad.get(), evil, sizeof(evil)));
  // The server must close the bad connection...
  std::uint8_t buf[16];
  EXPECT_EQ(recv_some(bad.get(), buf, sizeof(buf)), 0) << "expected EOF";

  // ...while the good one keeps working.
  kv::Request req;
  req.op = kv::OpType::kInsert;
  req.key = 1;
  req.value_len = 16;
  ResponseFrame resp;
  ASSERT_TRUE(good.call(req, &resp));
  EXPECT_EQ(resp.status, kv::ExecStatus::kOk);

  net.shutdown();
  EXPECT_GE(net.stats().protocol_errors, 1u);
}

}  // namespace
}  // namespace mgc::net
