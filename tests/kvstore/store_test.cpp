// kvstore unit/integration tests: row codec, memtable, commit log
// retention, flush-to-sstable semantics, and the full server path.
#include <gtest/gtest.h>

#include "kvstore/server.h"
#include "support/units.h"

namespace mgc::kv {
namespace {

VmConfig vm_config() {
  VmConfig cfg;
  cfg.gc = GcKind::kParallelOld;
  cfg.heap_bytes = 16 * MiB;
  cfg.young_bytes = 4 * MiB;
  cfg.gc_threads = 2;
  return cfg;
}

TEST(RowCodec, RoundTrip) {
  Vm vm(vm_config());
  Vm::MutatorScope s(vm, "t");
  Mutator& m = s.mutator();
  // Long enough to span several column fragments.
  std::vector<char> value(300);
  for (std::size_t i = 0; i < value.size(); ++i)
    value[i] = static_cast<char>(i * 7);
  Local row(m, encode_row(m, 42, 7, value.data(), value.size()));
  EXPECT_EQ(row_key(row.get()), 42u);
  EXPECT_EQ(row_version(row.get()), 7u);
  ASSERT_EQ(row_value_len(row.get()), value.size());
  EXPECT_GE(row.get()->num_refs(), 2u) << "expected a multi-column chain";
  std::vector<char> out(value.size());
  EXPECT_EQ(row_copy_value(row.get(), out.data(), out.size()), value.size());
  EXPECT_EQ(out, value);
}

TEST(MemtableTest, PutGetResetAccounting) {
  Vm vm(vm_config());
  Memtable table(vm, 256);
  Vm::MutatorScope s(vm, "t");
  Mutator& m = s.mutator();

  char buf[64];
  EXPECT_FALSE(table.get(m, 1, buf, sizeof(buf), nullptr, nullptr));
  table.put(m, 1, 1, "abc", 3);
  table.put(m, 2, 2, "defg", 4);
  std::size_t len = 0;
  ASSERT_TRUE(table.get(m, 1, buf, sizeof(buf), &len, nullptr));
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_GT(table.approx_bytes(), 0u);

  // Overwrite does not grow the live-byte estimate.
  const std::size_t before = table.approx_bytes();
  table.put(m, 1, 3, "zzz", 3);
  EXPECT_EQ(table.approx_bytes(), before);

  table.reset(m);
  EXPECT_EQ(table.row_count(), 0u);
  EXPECT_EQ(table.approx_bytes(), 0u);
  EXPECT_FALSE(table.get(m, 1, buf, sizeof(buf), nullptr, nullptr));
}

TEST(CommitLogTest, RetentionBoundsHeapUsage) {
  Vm vm(vm_config());
  CommitLog log(vm, /*segment=*/64 * KiB, /*retention=*/256 * KiB);
  Vm::MutatorScope s(vm, "t");
  Mutator& m = s.mutator();
  std::vector<char> value(512, 'x');
  for (int i = 0; i < 4000; ++i) {
    log.append(m, static_cast<std::uint64_t>(i), value.data(), value.size());
  }
  // Retention is enforced at segment rotation; allow one extra segment.
  EXPECT_LE(log.approx_bytes(), 256 * KiB + 2 * 64 * KiB);
  log.truncate(m);
  EXPECT_EQ(log.approx_bytes(), 0u);
}

TEST(StoreTest, FlushMovesRowsToSsTables) {
  Vm vm(vm_config());
  StoreConfig cfg;
  cfg.memtable_flush_bytes = 128 * KiB;
  cfg.commitlog_segment_bytes = 64 * KiB;
  cfg.commitlog_retention_bytes = 256 * KiB;
  Store store(vm, cfg);
  Vm::MutatorScope s(vm, "t");
  Mutator& m = s.mutator();

  std::vector<char> value(256, 'v');
  for (std::uint64_t k = 0; k < 2000; ++k) {
    value[0] = static_cast<char>(k);
    store.put(m, k, value.data(), value.size());
  }
  EXPECT_GT(store.flush_count(), 0u);
  EXPECT_GT(store.sstables().table_count(), 0u);

  // Every key is still readable (memtable or sstable).
  char buf[512];
  for (std::uint64_t k = 0; k < 2000; k += 37) {
    std::size_t len = 0;
    ASSERT_TRUE(store.get(m, k, buf, sizeof(buf), &len)) << k;
    EXPECT_EQ(len, value.size());
    EXPECT_EQ(buf[0], static_cast<char>(k));
  }
}

TEST(ServerTest, EndToEndReadsAndWrites) {
  Vm vm(vm_config());
  StoreConfig cfg = StoreConfig::default_config(vm.config().heap_bytes);
  cfg.value_len = 256;
  ShardedStore store(vm, cfg, /*shards=*/1);
  Server server(vm, store, {.workers_per_shard = 4});

  // Insert then read back from plain client threads.
  std::vector<std::thread> clients;
  std::atomic<int> found{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t k = static_cast<std::uint64_t>(c); k < 400; k += 4) {
        Request w;
        w.op = OpType::kInsert;
        w.key = k;
        w.value_len = 256;
        server.execute(w);
      }
      for (std::uint64_t k = static_cast<std::uint64_t>(c); k < 400; k += 4) {
        Request r;
        r.op = OpType::kRead;
        r.key = k;
        if (server.execute(r).found) found.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(found.load(), 400);
  EXPECT_EQ(server.completed(), 800u);
}

}  // namespace
}  // namespace mgc::kv
