// Example: the client-server experiment in miniature. Boot the
// Cassandra-like store under a chosen collector, run a YCSB-style load +
// transaction phase, and print how server GC pauses surfaced as client
// latency. With --net the client talks to the server over loopback TCP
// through the epoll front-end (the paper's measurement path); the server
// is then shut down gracefully (drain in-flight, flush responses, stop
// workers) before the statistics are printed.
//
//   $ ./build/examples/cassandra_server [GC] [default|stress] [records] [ops] [--net]
//   $ ./build/examples/cassandra_server CMS stress 8000 40000 --net
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
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

  bool use_net = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net") == 0) {
      use_net = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }

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

  std::unique_ptr<net::NetServer> net_server;
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::paper_custom(records, ops, 4);
  std::unique_ptr<ycsb::Client> client;
  if (use_net) {
    net_server = std::make_unique<net::NetServer>(server);
    ycsb::RemoteEndpoint ep;
    ep.port = net_server->port();
    client = std::make_unique<ycsb::Client>(ep, spec, env::seed());
  } else {
    client = std::make_unique<ycsb::Client>(server, spec, env::seed());
  }

  std::cout << "server up: " << cfg.describe() << ", "
            << (stress ? "stress" : "default") << " store config"
            << (use_net ? ", loopback TCP front-end on port " +
                              std::to_string(net_server->port())
                        : ", in-process transport")
            << "\nloading " << records << " rows...\n";
  const ycsb::PhaseResult load = client->load();
  std::cout << "load: " << load.duration_s() << " s ("
            << load.throughput_ops_s() << " ops/s)\nrunning " << ops
            << " transactions (50% read / 50% update)...\n";
  const ycsb::PhaseResult run = client->run();
  std::cout << "run: " << run.duration_s() << " s ("
            << run.throughput_ops_s() << " ops/s), flushes="
            << store.flush_count() << "\n";

  if (net_server != nullptr) {
    net_server->shutdown();
    const net::NetServerStats ns = net_server->stats();
    std::cout << "net front-end drained: " << ns.accepted
              << " connections served, " << ns.frames_in << " requests in, "
              << ns.frames_out << " responses out\n";
  }

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
