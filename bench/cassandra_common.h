// Shared setup for the client-server experiments (§4): a Cassandra-like
// store on a 64 GB (scaled) heap with a 12 GB young generation, a server
// worker pool, and a YCSB client. The stress configuration keeps memtable
// and commit log in memory so the old generation saturates.
#pragma once

#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "kvstore/server.h"
#include "net/net_server.h"
#include "ycsb/latency_stats.h"

namespace mgc::bench {

struct CassandraRun {
  PauseSummary pauses;
  std::vector<PauseEvent> pause_events;
  std::int64_t origin_ns = 0;
  ycsb::PhaseResult load;
  ycsb::PhaseResult run;
  std::uint64_t flushes = 0;
  // Distilled GC cost channels for the whole run (runtime/gc_cost.h).
  GcCostSnapshot cost;
  std::uint64_t allocated_bytes = 0;
  // Ops of either phase the client never saw succeed (ycsb::PhaseResult).
  std::uint64_t failed_ops() const { return load.failed + run.failed; }
};

inline VmConfig cassandra_vm_config(GcKind gc) {
  // §4: heap 64 GB, young generation 12 GB (scaled). Cassandra ships its
  // own GC tuning in cassandra-env.sh; the analogue here is an explicit
  // CMS initiating occupancy so the background cycle starts with headroom
  // (the real file sets CMSInitiatingOccupancyFraction + UseCMSInitiating-
  // OccupancyOnly for exactly this reason).
  VmConfig cfg = VmConfig::baseline(gc);
  cfg.heap_bytes = 64ULL * 1024 * scale::MB;
  cfg.young_bytes = 12ULL * 1024 * scale::MB;
  cfg.cms_trigger_occupancy = 0.55;
  return cfg;
}

// The YCSB client reaches the server over loopback TCP through the epoll
// front-end (the paper's separate-client-machine path); the front-end is
// drained before the pause log is read.
inline CassandraRun run_cassandra_ycsb(GcKind gc, bool stress,
                                       std::uint64_t records,
                                       std::uint64_t operations,
                                       std::size_t heap_bytes_override = 0,
                                       int net_loops = 1) {
  VmConfig cfg = cassandra_vm_config(gc);
  if (heap_bytes_override != 0) {
    // The distilled-cost bench hands Epsilon a heap sized to the
    // workload's full allocation volume (nothing is ever reclaimed).
    cfg.heap_bytes = heap_bytes_override;
  }
  Vm vm(cfg);
  kv::StoreConfig scfg = stress
                             ? kv::StoreConfig::stress_config(cfg.heap_bytes)
                             : kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  const int workers = std::min(env::threads(), 8);
  kv::Server server(vm, store, {.workers_per_shard = workers});
  net::NetServer net_server(server, {.loops = net_loops});

  ycsb::Client client(net_server.port(),
                      {.record_count = records,
                       .operation_count = operations,
                       .value_len = scfg.value_len,
                       .client_threads = workers},
                      env::seed());
  CassandraRun out;
  out.origin_ns = vm.gc_log().origin_ns();
  out.load = client.load();
  out.run = client.run();
  net_server.shutdown();  // drain + flush
  out.pauses = vm.gc_log().summarize();
  out.pause_events = vm.gc_log().snapshot();
  out.flushes = store.flush_count();
  out.cost = vm.cost_snapshot();
  out.allocated_bytes = vm.total_allocated_bytes();
  return out;
}

// "--loops N": event-loop count for the socket front-end (default 1, the
// pre-sharding shape). CI's asan-net job smokes fig5 with `--loops 2` to
// cover the multi-loop path under sanitizers.
inline int loops_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--loops") == 0) {
      const int n = std::atoi(argv[i + 1]);
      if (n >= 1 && n <= 64) return n;
    }
  }
  return 1;
}

inline std::uint64_t cassandra_records() {
  // ~15k 1KB rows (column-chain encoded, ~22 MB) + retained commit log (~21 MB) keep
  // the 64 MB scaled heap at ~75% occupancy under the stress
  // configuration — saturated enough that ParallelOld must run repeated
  // full collections, while the concurrent collectors can (mostly) keep
  // up, as in the paper's §4.1.
  return env::scaled(12000);
}

inline std::uint64_t cassandra_operations() { return env::scaled(150000); }

}  // namespace mgc::bench
