// Shard-per-core integration: the sharded kv::Server behind the multi-loop
// NetServer front-end. Covers M clients x K ops tag integrity across >= 4
// shards, pipelined batch round trips, per-shard shedding isolation under
// a skewed workload (scoped fault injection), the per-loop SO_REUSEPORT
// listeners, and the per-loop drain invariant
// frames_out + dropped_responses == frames_in after shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "kvstore/server.h"
#include "kvstore/sharded_store.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "support/fault.h"
#include "support/units.h"

namespace mgc::net {
namespace {

struct ShardedRig {
  VmConfig cfg;
  Vm vm;
  kv::StoreConfig scfg;
  kv::ShardedStore store;
  kv::Server server;

  explicit ShardedRig(std::size_t shards, kv::ServerConfig sc = {})
      : cfg(make_cfg()),
        vm(cfg),
        scfg(kv::StoreConfig::default_config(cfg.heap_bytes)),
        store(vm, scfg, shards),
        server(vm, store, sc) {}

  static VmConfig make_cfg() {
    VmConfig c;
    c.gc = GcKind::kParNew;
    c.heap_bytes = 24 * MiB;
    c.young_bytes = 6 * MiB;
    c.gc_threads = 2;
    return c;
  }
};

// After a graceful shutdown every decoded request must be accounted for on
// the loop that decoded it: answered on the wire or dropped with its dead
// connection. Holds per loop, not just in aggregate.
void expect_per_loop_drain_invariant(const NetServer& net) {
  const auto per_loop = net.per_loop_stats();
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    EXPECT_EQ(per_loop[i].frames_out + per_loop[i].dropped_responses,
              per_loop[i].frames_in)
        << "loop " << i << " leaked requests";
  }
}

TEST(ShardedNet, MultiClientTagIntegrityAcrossShards) {
  ShardedRig rig(/*shards=*/4);
  ASSERT_EQ(rig.server.shard_count(), 4u);
  NetServerConfig ncfg;
  ncfg.loops = 2;
  NetServer net(rig.server, ncfg);
  ASSERT_GT(net.port(), 0);
  ASSERT_EQ(net.loop_count(), 2u);

  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 300;
  std::atomic<std::uint64_t> responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient cl("127.0.0.1", net.port());
      ASSERT_TRUE(cl.connected());
      std::uint64_t expected_tag = 0;
      for (int i = 0; i < kOpsPerClient; ++i) {
        // Thread-private key space, keys striped across all shards:
        // read-your-own-writes proves responses were not cross-wired
        // between clients, loops, or shards.
        const std::uint64_t key =
            static_cast<std::uint64_t>(c) * 1000000 +
            static_cast<std::uint64_t>((i / 2) % 64);
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
  // The key stripe really lands on more than one shard.
  std::set<std::size_t> shards_hit;
  for (std::uint64_t k = 0; k < 64; ++k) {
    shards_hit.insert(rig.server.shard_of_key(k));
  }
  EXPECT_GE(shards_hit.size(), 3u);

  net.shutdown();
  const NetServerStats s = net.stats();
  EXPECT_EQ(s.frames_in, responses.load());
  EXPECT_EQ(s.frames_out, responses.load());
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.closed, s.accepted);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.dropped_responses, 0u);
  expect_per_loop_drain_invariant(net);
}

TEST(ShardedNet, BatchPipelineRoundTrip) {
  kv::ServerConfig sc;
  sc.workers_per_shard = 1;
  ShardedRig rig(/*shards=*/4, sc);
  NetServerConfig ncfg;
  ncfg.loops = 2;
  NetServer net(rig.server, ncfg);

  BlockingClient cl("127.0.0.1", net.port());
  ASSERT_TRUE(cl.connected());

  // A window larger than the per-connection in-flight cap (64): the idle
  // connection admits it whole, so oversized windows still progress.
  constexpr std::uint64_t kKeys = 100;
  std::vector<kv::Request> inserts;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    kv::Request r;
    r.op = kv::OpType::kInsert;
    r.key = k;
    r.value_len = 64;
    inserts.push_back(r);
  }
  std::vector<ResponseFrame> resp;
  ASSERT_TRUE(cl.submit_batch(inserts, &resp));
  ASSERT_EQ(resp.size(), inserts.size());
  for (std::size_t i = 0; i < resp.size(); ++i) {
    EXPECT_EQ(resp[i].status, kv::ExecStatus::kOk);
    // Index alignment: responses arrive out of order across shards but are
    // re-sequenced by tag; tags were assigned sequentially per entry.
    EXPECT_EQ(resp[i].tag, resp[0].tag + i);
  }
  // The batch really spanned several shards.
  std::set<std::size_t> shards_hit;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    shards_hit.insert(rig.server.shard_of_key(k));
  }
  EXPECT_GE(shards_hit.size(), 3u);

  // Pipelined reads see every insert; execute_batch is the retrying form.
  std::vector<kv::Request> reads;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    kv::Request r;
    r.op = kv::OpType::kRead;
    r.key = k;
    reads.push_back(r);
  }
  const std::vector<kv::Response> answers = cl.execute_batch(reads);
  ASSERT_EQ(answers.size(), reads.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].status, kv::ExecStatus::kOk);
    EXPECT_TRUE(answers[i].found) << "batch-inserted key " << i << " lost";
  }

  net.shutdown();
  const NetServerStats s = net.stats();
  EXPECT_EQ(s.frames_in, 2 * kKeys);  // sub-requests counted individually
  EXPECT_EQ(s.frames_out, 2 * kKeys);
  EXPECT_EQ(s.protocol_errors, 0u);
  expect_per_loop_drain_invariant(net);
}

TEST(ShardedNet, SkewSheddingIsolatedToShard) {
  ShardedRig rig(/*shards=*/4);
  // Arm the queue-full site scoped to shard 2 only: every admission to
  // that shard sheds, the rest of the fleet stays healthy.
  constexpr std::uint32_t kHotShard = 2;
  fault::Policy p;
  p.scope = kHotShard;
  fault::ScopedFault hot(fault::Site::kKvQueueFull, p);

  // One key per shard, found by walking the hash.
  std::vector<std::uint64_t> key_for_shard(4, ~0ULL);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    key_for_shard[rig.server.shard_of_key(k)] = k;
  }
  for (std::size_t sh = 0; sh < 4; ++sh) {
    ASSERT_NE(key_for_shard[sh], ~0ULL) << "no key found for shard " << sh;
  }

  constexpr int kOpsPerShard = 50;
  for (std::size_t sh = 0; sh < 4; ++sh) {
    for (int i = 0; i < kOpsPerShard; ++i) {
      kv::Request req;
      req.op = kv::OpType::kInsert;
      req.key = key_for_shard[sh];
      req.value_len = 32;
      const kv::Response r = rig.server.execute(req);
      if (sh == kHotShard) {
        EXPECT_EQ(r.status, kv::ExecStatus::kOverloaded);
      } else {
        EXPECT_EQ(r.status, kv::ExecStatus::kOk);
      }
    }
  }
  // Shedding is fully isolated: all of the hot shard's admissions shed,
  // none of its siblings shed anything.
  for (std::size_t sh = 0; sh < 4; ++sh) {
    if (sh == kHotShard) {
      EXPECT_EQ(rig.server.shed_count(sh),
                static_cast<std::uint64_t>(kOpsPerShard));
    } else {
      EXPECT_EQ(rig.server.shed_count(sh), 0u) << "shard " << sh;
    }
  }
}

TEST(ShardedNet, ReuseportUsedWhenSupported) {
  ShardedRig rig(/*shards=*/2);
  NetServerConfig ncfg;
  ncfg.loops = 2;
  NetServer net(rig.server, ncfg);
  ASSERT_EQ(net.loop_count(), 2u);

  // Each loop owns an SO_REUSEPORT listener on the one port, so the kernel
  // hashes connections across both loops. With 32 connections from fresh
  // source ports, all landing on one loop has probability 2^-31.
  constexpr int kClients = 32;
  for (int c = 0; c < kClients; ++c) {
    BlockingClient cl("127.0.0.1", net.port());
    ASSERT_TRUE(cl.connected());
    kv::Request req;
    req.op = kv::OpType::kInsert;
    req.key = static_cast<std::uint64_t>(c);
    req.value_len = 16;
    ResponseFrame resp;
    ASSERT_TRUE(cl.call(req, &resp));
    EXPECT_EQ(resp.status, kv::ExecStatus::kOk);
  }
  net.shutdown();
  const auto per_loop = net.per_loop_stats();
  ASSERT_EQ(per_loop.size(), 2u);
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    EXPECT_GT(per_loop[i].accepted, 0u) << "loop " << i << " never accepted";
  }
  EXPECT_EQ(net.stats().accepted, static_cast<std::uint64_t>(kClients));
  expect_per_loop_drain_invariant(net);
}

}  // namespace
}  // namespace mgc::net
