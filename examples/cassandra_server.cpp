// Example: the client-server experiment in miniature. Boot the
// Cassandra-like store under a chosen collector behind the loopback TCP
// front-end, run a YCSB-style load + transaction phase through it (the
// paper's measurement path), shut the front-end down gracefully (drain
// in-flight, flush responses), and print how server GC pauses surfaced as
// client latency.
//
//   $ ./build/examples/cassandra_server [GC] [default|stress] [records] [ops]
//   $ ./build/examples/cassandra_server CMS stress 8000 40000
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "kvstore/server.h"
#include "net/net_server.h"
#include "support/env.h"
#include "support/table.h"
#include "support/units.h"
#include "ycsb/latency_stats.h"

int main(int argc, char** argv) {
  using namespace mgc;

  const std::vector<std::string> args(argv + 1, argv + argc);
  const GcKind gc = args.size() > 0 ? gc_kind_from_name(args[0].c_str())
                                    : GcKind::kCms;
  const bool stress = args.size() > 1 && args[1] == "stress";
  const std::uint64_t records =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 8000;
  const std::uint64_t ops =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 40000;

  VmConfig cfg = VmConfig::baseline(gc);
  cfg.heap_bytes = 64ULL * 1024 * scale::MB;  // the paper's 64 GB, scaled
  cfg.young_bytes = 12ULL * 1024 * scale::MB;
  Vm vm(cfg);

  kv::StoreConfig scfg = stress
                             ? kv::StoreConfig::stress_config(cfg.heap_bytes)
                             : kv::StoreConfig::default_config(cfg.heap_bytes);
  kv::ShardedStore store(vm, scfg, /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 4});
  net::NetServer net_server(server);
  ycsb::Client client(
      net_server.port(),
      {.record_count = records, .operation_count = ops, .client_threads = 4},
      env::seed());

  std::cout << "server up: " << cfg.describe() << ", "
            << (stress ? "stress" : "default")
            << " store config, loopback TCP front-end on port "
            << net_server.port() << "\nloading " << records << " rows...\n";
  const ycsb::PhaseResult load = client.load();
  std::cout << "load: " << load.duration_s() << " s ("
            << load.throughput_ops_s() << " ops/s)\nrunning " << ops
            << " transactions (50% read / 50% update)...\n";
  const ycsb::PhaseResult run = client.run();
  std::cout << "run: " << run.duration_s() << " s ("
            << run.throughput_ops_s() << " ops/s), flushes="
            << store.flush_count() << ", failed ops="
            << load.failed + run.failed << "\n";

  net_server.shutdown();
  const net::NetServerStats ns = net_server.stats();
  std::cout << "net front-end drained: " << ns.accepted
            << " connections served, " << ns.frames_in << " requests in, "
            << ns.frames_out << " responses out\n";

  const auto pauses = vm.gc_log().snapshot();
  const PauseSummary sum = vm.gc_log().summarize();
  std::cout << "server pauses: " << sum.pauses << " (" << sum.full_pauses
            << " full), max " << sum.max_s * 1e3 << " ms, total "
            << sum.total_s * 1e3 << " ms\n";

  for (kv::OpType op : {kv::OpType::kRead, kv::OpType::kUpdate}) {
    const auto st = ycsb::compute_latency_stats(run.samples, op, pauses);
    const char* name = op == kv::OpType::kRead ? "READ" : "UPDATE";
    std::cout << name << ": avg " << st.avg_ms << " ms, max " << st.max_ms
              << " ms; spikes >4x avg: " << st.bands[2].pct_reqs
              << "% of requests, " << st.bands[2].pct_gcs
              << "% of those overlapped a GC pause\n";
  }
  return 0;
}
