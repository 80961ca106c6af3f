// Server/store concurrency: mixed read/write traffic from many clients,
// flush racing traffic, queue back-pressure, and heap soundness at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "kvstore/server.h"
#include "runtime/heap_verifier.h"
#include "support/rng.h"
#include "support/units.h"

namespace mgc::kv {
namespace {

TEST(ServerConcurrency, MixedTrafficWithFlushes) {
  VmConfig cfg;
  cfg.gc = GcKind::kParallelOld;
  cfg.heap_bytes = 24 * MiB;
  cfg.young_bytes = 6 * MiB;
  cfg.gc_threads = 2;
  Vm vm(cfg);
  StoreConfig scfg;
  scfg.memtable_flush_bytes = 1 * MiB;  // flush often
  scfg.commitlog_segment_bytes = 512 * KiB;
  scfg.commitlog_retention_bytes = 2 * MiB;
  scfg.value_len = 512;
  ShardedStore sharded(vm, scfg, /*shards=*/1);
  Store& store = sharded.shard(0);
  Server server(vm, sharded, {.workers_per_shard = 3, .queue_capacity = 16});

  std::atomic<int> found{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < 2000; ++i) {
        Request req;
        if (rng.chance(0.5)) {
          req.op = OpType::kInsert;
          req.key = rng.below(3000);
          req.value_len = 512;
          server.execute(req);
        } else {
          req.op = OpType::kRead;
          req.key = rng.below(3000);
          if (server.execute(req).found) found.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(server.completed(), 8000u);
  EXPECT_GT(store.flush_count(), 0u) << "expected several memtable flushes";
  EXPECT_GT(found.load(), 0);
  EXPECT_GT(store.sstables().total_rows(), 0u);

  // Every key written is readable from memtable or sstables.
  Vm::MutatorScope scope(vm, "verify");
  Mutator& m = scope.mutator();
  char buf[1024];
  std::size_t readable = 0;
  for (std::uint64_t k = 0; k < 3000; ++k) {
    std::size_t len = 0;
    if (store.get(m, k, buf, sizeof(buf), &len)) {
      EXPECT_EQ(len, 512u);
      ++readable;
    }
  }
  EXPECT_GT(readable, 1000u);

  const VerifyReport rep = verify_heap(vm);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

TEST(ServerConcurrency, QueueBackPressureBlocksClients) {
  VmConfig cfg;
  cfg.gc = GcKind::kSerial;
  cfg.heap_bytes = 8 * MiB;
  cfg.young_bytes = 2 * MiB;
  Vm vm(cfg);
  StoreConfig scfg = StoreConfig::default_config(cfg.heap_bytes);
  ShardedStore sharded(vm, scfg, /*shards=*/1);
  Store& store = sharded.shard(0);
  Server server(vm, sharded, {.workers_per_shard = 1, .queue_capacity = 2});
  // Many clients against a 1-worker, 2-slot queue: correctness under
  // saturation (no lost or duplicated completions).
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 200; ++i) {
        Request req;
        req.op = OpType::kInsert;
        req.key = static_cast<std::uint64_t>(c) * 1000 + i;
        req.value_len = 64;
        server.execute(req);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(server.completed(), 1200u);
  EXPECT_EQ(store.memtable().row_count(), 1200u);
}

// Regression: destroying the server while clients are blocked on a full
// queue used to hang — ~Server only woke the workers, never the clients
// parked on space_cv_. Now blocked clients wake and get
// ExecStatus::kShutdown; requests already queued still complete.
TEST(ServerConcurrency, DestroyUnderLoadReleasesBlockedClients) {
  VmConfig cfg;
  cfg.gc = GcKind::kSerial;
  cfg.heap_bytes = 8 * MiB;
  cfg.young_bytes = 2 * MiB;
  Vm vm(cfg);
  StoreConfig scfg = StoreConfig::default_config(cfg.heap_bytes);
  ShardedStore sharded(vm, scfg, /*shards=*/1);
  Store& store = sharded.shard(0);
  // 1 worker and a 1-slot queue: with 6 looping clients, several are
  // blocked in admission control at any instant.
  auto server = std::make_unique<Server>(
      vm, sharded, ServerConfig{.workers_per_shard = 1, .queue_capacity = 1});

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t key = static_cast<std::uint64_t>(c) * 100000;
      for (;;) {
        Request req;
        req.op = OpType::kInsert;
        req.key = key++;
        req.value_len = 64;
        const Response r = server->execute(req);
        if (r.status == ExecStatus::kShutdown) {
          rejected.fetch_add(1);
          break;  // server going away: the only exit from this loop
        }
        ok.fetch_add(1);
      }
    });
  }

  // Let the clients pile up against the 1-slot queue, then pull the rug.
  // shutdown() runs the destructor's teardown while clients are blocked in
  // execute(); the object itself stays alive until they have all seen the
  // rejection and exited.
  while (ok.load() < 100) std::this_thread::yield();
  server->shutdown();  // must not hang with clients blocked on space_cv_
  for (auto& t : clients) t.join();
  server.reset();

  EXPECT_EQ(rejected.load(), 6u) << "every client must observe shutdown";
  EXPECT_GE(ok.load(), 100u);
  // Everything acknowledged as kOk really executed.
  EXPECT_GE(store.memtable().row_count() + store.sstables().total_rows(),
            ok.load());
}

TEST(SsTables, NewestTableWins) {
  SsTableSet set;
  std::unordered_map<std::uint64_t, SsTableSet::StoredRow> t1;
  t1[5] = {1, {'a'}};
  set.add_table(std::move(t1));
  std::unordered_map<std::uint64_t, SsTableSet::StoredRow> t2;
  t2[5] = {2, {'b'}};
  set.add_table(std::move(t2));

  char out = 0;
  std::size_t len = 0;
  std::uint64_t version = 0;
  ASSERT_TRUE(set.get(5, &out, 1, &len, &version));
  EXPECT_EQ(out, 'b');
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(set.table_count(), 2u);
  EXPECT_FALSE(set.get(6, &out, 1, &len, &version));
}

}  // namespace
}  // namespace mgc::kv
