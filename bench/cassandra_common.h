// Shared setup for the client-server experiments (§4): a Cassandra-like
// store on a 64 GB (scaled) heap with a 12 GB young generation, a server
// worker pool, and a YCSB client. The stress configuration keeps memtable
// and commit log in memory so the old generation saturates.
#pragma once

#include <cstdlib>
#include <cstring>
#include <memory>

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

// With use_net=true the YCSB client talks to the server over loopback TCP
// through the epoll front-end (the paper's separate-client-machine path);
// otherwise it calls straight into the worker queue as before.
inline CassandraRun run_cassandra_ycsb(GcKind gc, bool stress,
                                       std::uint64_t records,
                                       std::uint64_t operations,
                                       double read_prop = 0.5,
                                       double update_prop = 0.5,
                                       double insert_prop = 0.0,
                                       bool use_net = false,
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

  ycsb::WorkloadSpec spec;
  spec.record_count = records;
  spec.operation_count = operations;
  spec.read_proportion = read_prop;
  spec.update_proportion = update_prop;
  spec.insert_proportion = insert_prop;
  spec.value_len = scfg.value_len;
  spec.client_threads = workers;

  std::unique_ptr<net::NetServer> net_server;
  std::unique_ptr<ycsb::Client> client;
  if (use_net) {
    net::NetServerConfig ncfg;
    ncfg.loops = net_loops;
    net_server = std::make_unique<net::NetServer>(server, ncfg);
    ycsb::RemoteEndpoint ep;
    ep.port = net_server->port();
    client = std::make_unique<ycsb::Client>(ep, spec, env::seed());
  } else {
    client = std::make_unique<ycsb::Client>(server, spec, env::seed());
  }
  CassandraRun out;
  out.origin_ns = vm.gc_log().origin_ns();
  out.load = client->load();
  out.run = client->run();
  if (net_server != nullptr) net_server->shutdown();  // drain + flush
  out.pauses = vm.gc_log().summarize();
  out.pause_events = vm.gc_log().snapshot();
  out.flushes = store.flush_count();
  out.cost = vm.cost_snapshot();
  out.allocated_bytes = vm.total_allocated_bytes();
  return out;
}

// True if any argv equals "--net": the fig4/fig5 binaries accept it to run
// the client over the socket front-end instead of in-process.
inline bool net_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net") == 0) return true;
  }
  return false;
}

// "--loops N": event-loop count for the --net front-end (default 1, the
// pre-sharding shape). CI's asan-net job smokes fig4/fig5 with
// `--net --loops 2` to cover the multi-loop path under sanitizers.
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
