// YCSB client tests: phase execution against a real server over loopback
// TCP, and the latency band statistics of Tables 5-7.
#include <gtest/gtest.h>

#include "kvstore/sharded_store.h"
#include "net/net_server.h"
#include "support/units.h"
#include "ycsb/latency_stats.h"

namespace mgc::ycsb {
namespace {

TEST(ClientDriver, LoadAndRunAgainstRealServer) {
  VmConfig cfg;
  cfg.gc = GcKind::kCms;
  cfg.heap_bytes = 24 * MiB;
  cfg.young_bytes = 6 * MiB;
  cfg.gc_threads = 2;
  Vm vm(cfg);
  kv::StoreConfig scfg = kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 4});
  net::NetServer netsrv(server);

  // Three threads do not divide 8000 ops: the remainder is spread over
  // them, so the run issues exactly operation_count ops.
  Client client(netsrv.port(),
                {.record_count = 2000,
                 .operation_count = 8000,
                 .value_len = 512,
                 .client_threads = 3},
                7);

  const PhaseResult load = client.load();
  EXPECT_EQ(load.samples.size(), 2000u);
  EXPECT_EQ(load.failed, 0u);
  EXPECT_GT(load.throughput_ops_s(), 0.0);

  const PhaseResult run = client.run();
  EXPECT_EQ(run.samples.size(), 8000u);
  EXPECT_EQ(run.failed, 0u);
  std::size_t reads = 0, updates = 0;
  for (const auto& s : run.samples) {
    if (s.op == kv::OpType::kRead) ++reads;
    if (s.op == kv::OpType::kUpdate) ++updates;
    EXPECT_GT(s.latency_ns, 0);
  }
  // ~50/50 mix.
  const double ratio =
      static_cast<double>(reads) / static_cast<double>(reads + updates);
  EXPECT_NEAR(ratio, 0.5, 0.05);

  const auto pauses = vm.gc_log().snapshot();
  const LatencyStats rs = compute_latency_stats(run.samples,
                                                kv::OpType::kRead, pauses);
  EXPECT_EQ(rs.count, reads);
  EXPECT_GT(rs.avg_ms, 0.0);
  EXPECT_GE(rs.max_ms, rs.avg_ms);
  ASSERT_EQ(rs.bands.size(), 5u);
  EXPECT_EQ(rs.bands[0].label, "0.5x-1.5x AVG");

  netsrv.shutdown();
  const net::NetServerStats st = netsrv.stats();
  // Every op crossed the wire, and every request decoded was answered or
  // counted as dropped.
  EXPECT_EQ(st.frames_out + st.dropped_responses, st.frames_in);
  EXPECT_GE(st.frames_in, 10000u);
}

TEST(LatencyBands, GcAttributionMatchesOverlap) {
  std::vector<PauseEvent> pauses;
  PauseEvent p;
  p.start_ns = 1000;
  p.end_ns = 2000;
  pauses.push_back(p);

  EXPECT_TRUE(overlaps_pause(pauses, 500, 1500));
  EXPECT_TRUE(overlaps_pause(pauses, 1500, 1600));
  EXPECT_TRUE(overlaps_pause(pauses, 1900, 2500));
  EXPECT_FALSE(overlaps_pause(pauses, 0, 999));
  EXPECT_FALSE(overlaps_pause(pauses, 2001, 3000));

  // Synthetic samples: 9 fast ops, 1 slow op overlapping the pause.
  std::vector<OpSample> samples;
  for (int i = 0; i < 9; ++i) {
    OpSample s;
    s.op = kv::OpType::kRead;
    s.start_ns = 5000 + i;
    s.latency_ns = 1000000;  // 1 ms
    samples.push_back(s);
  }
  OpSample slow;
  slow.op = kv::OpType::kRead;
  slow.start_ns = 900;
  slow.latency_ns = 40000000;  // 40 ms, overlaps the pause
  samples.push_back(slow);

  const LatencyStats st =
      compute_latency_stats(samples, kv::OpType::kRead, pauses);
  EXPECT_EQ(st.count, 10u);
  // The >2x band contains exactly the slow op.
  const LatencyBand& b2 = st.bands[1];
  EXPECT_NEAR(b2.pct_reqs, 10.0, 1e-9);
  // The single pause (1 ms duration) is far above 2x the ~4.9 ms avg? No:
  // avg is ~4.9 ms here, so the 1 ms pause falls below the >2x band and in
  // none of the spike bands; the normal band (0.5x-1.5x avg) misses it too.
  EXPECT_NEAR(st.bands[0].pct_gcs, 0.0, 1e-9);
  EXPECT_NEAR(b2.pct_gcs, 0.0, 1e-9);
  // A long pause lands in every spike band, as in the paper's tables.
  PauseEvent big;
  big.start_ns = 100000;
  big.end_ns = big.start_ns + 500000000;  // 500 ms
  pauses.push_back(big);
  const LatencyStats st2 =
      compute_latency_stats(samples, kv::OpType::kRead, pauses);
  EXPECT_NEAR(st2.bands[1].pct_gcs, 50.0, 1e-9);   // 1 of 2 pauses > 2x avg
  EXPECT_NEAR(st2.bands[4].pct_gcs, 50.0, 1e-9);   // and > 16x avg
}

TEST(LatencyMerge, WeightedMergeAcrossPartitions) {
  auto make = [](std::size_t count, double avg, double mn, double mx,
                 double band0_reqs) {
    LatencyStats s;
    s.count = count;
    s.avg_ms = avg;
    s.min_ms = mn;
    s.max_ms = mx;
    LatencyBand b;
    b.label = "0.5x-1.5x AVG";
    b.pct_reqs = band0_reqs;
    b.pct_gcs = 0.0;
    s.bands.push_back(b);
    return s;
  };
  const LatencyStats merged = merge_latency_stats({
      make(10, 2.0, 1.0, 3.0, 50.0),
      LatencyStats{},  // empty partition (an idle shard) is skipped
      make(30, 4.0, 0.5, 10.0, 70.0),
  });
  EXPECT_EQ(merged.count, 40u);
  EXPECT_NEAR(merged.avg_ms, 3.5, 1e-12);  // (10*2 + 30*4) / 40
  EXPECT_NEAR(merged.min_ms, 0.5, 1e-12);
  EXPECT_NEAR(merged.max_ms, 10.0, 1e-12);
  ASSERT_EQ(merged.bands.size(), 1u);
  EXPECT_NEAR(merged.bands[0].pct_reqs, 65.0, 1e-12);  // count-weighted

  // Merging nothing (or only empty partitions) is a well-defined zero.
  EXPECT_EQ(merge_latency_stats({}).count, 0u);
  EXPECT_EQ(merge_latency_stats({LatencyStats{}, LatencyStats{}}).count, 0u);
}

TEST(ClientDriver, PipelinedRemoteRunAgainstShardedServer) {
  VmConfig cfg;
  cfg.gc = GcKind::kParNew;
  cfg.heap_bytes = 24 * MiB;
  cfg.young_bytes = 6 * MiB;
  cfg.gc_threads = 2;
  Vm vm(cfg);
  kv::StoreConfig scfg = kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/4);
  kv::Server server(vm, store, kv::ServerConfig{});
  net::NetServerConfig ncfg;
  ncfg.loops = 2;
  net::NetServer netsrv(server, ncfg);

  // Windows of 8 ops per batch round trip.
  Client client(netsrv.port(),
                {.record_count = 500,
                 .operation_count = 2000,
                 .value_len = 256,
                 .client_threads = 2,
                 .pipeline_depth = 8},
                11);

  const PhaseResult load = client.load();
  EXPECT_EQ(load.samples.size(), 500u);
  EXPECT_EQ(load.failed, 0u);

  const PhaseResult run = client.run();
  EXPECT_EQ(run.samples.size(), 2000u);
  EXPECT_EQ(run.failed, 0u);
  std::size_t reads = 0, updates = 0;
  for (const auto& s : run.samples) {
    if (s.op == kv::OpType::kRead) ++reads;
    if (s.op == kv::OpType::kUpdate) ++updates;
    EXPECT_GT(s.latency_ns, 0);
  }
  const double ratio =
      static_cast<double>(reads) / static_cast<double>(reads + updates);
  EXPECT_NEAR(ratio, 0.5, 0.08);

  netsrv.shutdown();
  const net::NetServerStats st = netsrv.stats();
  // Every op crossed the wire (load singles plus pipelined run sub-frames)
  // and nothing leaked: the aggregate drain invariant holds here; the
  // per-loop version is asserted in the net tier.
  EXPECT_EQ(st.frames_out + st.dropped_responses, st.frames_in);
  EXPECT_GE(st.frames_in, 2500u);
}

}  // namespace
}  // namespace mgc::ycsb
