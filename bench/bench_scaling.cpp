// Scaling study: YCSB throughput and tail latency vs. loop/shard count.
//
// The paper's headline scenario is Cassandra under heavy concurrency on a
// 48-core machine; this bench measures how the shard-per-core kvstore and
// the multi-loop SO_REUSEPORT front-end scale the request path. For each
// collector and each point L in {1, 2, 4} it runs the 50/50 YCSB mix over
// loopback TCP with L event loops feeding L shards (pipelined windows of
// 8 ops per batch frame) and reports ops/s and p99.
//
// Guarded metrics are structural fingerprints only (point counts, drain
// violations, non-monotone ops/s steps on >=4 cores); raw ops/s and
// latency numbers are recorded unguarded in the tables and config —
// absolute throughput is machine-bound and higher-is-better, which the
// lower-is-better guard must not clamp.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cassandra_common.h"
#include "kvstore/sharded_store.h"
#include "support/affinity.h"
#include "support/stats.h"

namespace {

struct ScalePoint {
  int loops = 0;
  double ops_s = 0;
  double p99_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mgc;
  using namespace mgc::bench;
  const BenchArgs args = parse_bench_args(argc, argv);
  banner("Scaling: YCSB ops/s and p99 vs. loop/shard count",
         "the §4 client-server study at multicore scale");

  const std::vector<int> kLoopPoints = {1, 2, 4};
  const int kPipelineDepth = 8;
  const int cores = hw_cores();
  const bool pin = affinity_supported() && cores >= 2;
  // One closed-loop connection per client thread; the full run approaches
  // the paper's heavy-concurrency regime, --quick keeps tier-1 CI fast.
  const int conns = args.quick ? 16 : 1024;
  const std::uint64_t records = env::scaled(8000);
  const std::uint64_t ops = env::scaled(80000);

  BenchReport report("scaling", args);
  report.set_config("loop_points", Json(static_cast<double>(kLoopPoints.size())));
  report.set_config("pipeline_depth", Json(static_cast<double>(kPipelineDepth)));
  report.set_config("connections", Json(static_cast<double>(conns)));
  report.set_config("cores", Json(static_cast<double>(cores)));
  report.set_config("pinned", Json(pin ? 1.0 : 0.0));
  std::cout << "cores=" << cores << " pinned=" << (pin ? "yes" : "no")
            << " connections=" << conns << " pipeline_depth=" << kPipelineDepth
            << "\n";

  std::uint64_t drain_violations = 0;
  std::uint64_t nonmonotone = 0;
  std::size_t collectors_run = 0;
  std::size_t points_run = 0;

  for (GcKind gc : main_gc_kinds()) {
    std::cout << "\n####### " << gc_name(gc) << " #######\n";
    Table t(std::string("YCSB scaling for ") + gc_name(gc) + " (" +
            std::to_string(ops) + " ops, " + std::to_string(conns) +
            " connections)");
    t.header({"loops/shards", "ops/s", "p99(ms)", "avg(ms)", "shed"});
    std::vector<ScalePoint> points;

    for (int loops : kLoopPoints) {
      VmConfig cfg = cassandra_vm_config(gc);
      Vm vm(cfg);
      const kv::StoreConfig scfg =
          kv::StoreConfig::default_config(cfg.heap_bytes);
      kv::ShardedStore store(vm, scfg, static_cast<std::size_t>(loops));
      kv::ServerConfig sc;
      sc.workers_per_shard = 1;
      sc.pin_workers = pin;
      kv::Server server(vm, store, sc);
      net::NetServerConfig ncfg;
      ncfg.loops = loops;
      ncfg.pin_loops = pin;
      net::NetServer netsrv(server, ncfg);

      ycsb::Client client(netsrv.port(),
                          {.record_count = records,
                           .operation_count = ops,
                           .value_len = scfg.value_len,
                           .client_threads = conns,
                           .pipeline_depth = kPipelineDepth},
                          env::seed());

      client.load();
      const ycsb::PhaseResult run = client.run();
      netsrv.shutdown();

      // The per-loop drain invariant must hold at every scaling point;
      // a violation is a bug in the front-end, not a perf signal.
      for (const net::NetServerStats& ls : netsrv.per_loop_stats()) {
        if (ls.frames_out + ls.dropped_responses != ls.frames_in ||
            ls.accepted != ls.closed) {
          ++drain_violations;
        }
      }

      std::vector<double> lat_ms;
      lat_ms.reserve(run.samples.size());
      double sum_ms = 0;
      for (const auto& s : run.samples) {
        const double ms = ns_to_ms(s.latency_ns);
        lat_ms.push_back(ms);
        sum_ms += ms;
      }
      const double p99 = lat_ms.empty() ? 0 : percentile_of(lat_ms, 99.0);
      const double avg =
          lat_ms.empty() ? 0 : sum_ms / static_cast<double>(lat_ms.size());
      std::uint64_t shed = 0;
      for (std::size_t i = 0; i < server.shard_count(); ++i) {
        shed += server.shed_count(i);
      }

      ScalePoint pt;
      pt.loops = loops;
      pt.ops_s = run.throughput_ops_s();
      pt.p99_ms = p99;
      points.push_back(pt);
      ++points_run;
      t.row({std::to_string(loops), Table::num(pt.ops_s, 0),
             Table::num(p99, 3), Table::num(avg, 3), std::to_string(shed)});

      // Raw numbers are context, not guarded bounds (ops/s is
      // higher-is-better; wall-clock latency is machine noise at --quick).
      const std::string key_base =
          std::string(gc_name(gc)) + "_L" + std::to_string(loops);
      report.set_config("ops_per_s_" + key_base, Json(pt.ops_s));
      report.set_config("p99_ms_" + key_base, Json(p99));
    }
    t.print(std::cout);
    report.add_table(t);
    ++collectors_run;

    // Monotone scaling check: each doubling of loops/shards must not lose
    // throughput (15% slack for scheduler noise). Only meaningful when the
    // hardware can actually run the loops in parallel.
    if (cores >= 4) {
      for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].ops_s < 0.85 * points[i - 1].ops_s) {
          std::cout << "NON-MONOTONE: " << gc_name(gc) << " "
                    << points[i - 1].loops << "->" << points[i].loops
                    << " loops dropped " << Table::num(points[i - 1].ops_s, 0)
                    << " -> " << Table::num(points[i].ops_s, 0) << " ops/s\n";
          ++nonmonotone;
        }
      }
    }
  }

  report.set_config("monotone_check",
                    Json(cores >= 4 ? "active" : "skipped (<4 cores)"));

  // Structural fingerprints (all zero-baselined): any drift fails the
  // perf guard in both directions.
  report.set_metric(
      "loop_points_missing_exact",
      static_cast<double>(kLoopPoints.size() * main_gc_kinds().size() -
                          points_run));
  report.set_metric("collectors_missing_exact",
                    static_cast<double>(main_gc_kinds().size() - collectors_run));
  report.set_metric("pipeline_depth_delta_exact",
                    static_cast<double>(kPipelineDepth - 8));
  report.set_metric("drain_violations_exact",
                    static_cast<double>(drain_violations));
  report.set_metric("nonmonotone_exact", static_cast<double>(nonmonotone));

  std::cout << "\nExpected shape: ops/s grows monotonically with the "
               "loop/shard count on multicore hosts (>=2x at 4 loops on "
               "unloaded hardware); p99 stays flat or improves as front-end "
               "contention is removed. On a single core the points overlap "
               "and the monotone check is skipped.\n";
  if (drain_violations != 0) {
    std::cout << "DRAIN VIOLATIONS: " << drain_violations << "\n";
    return 1;
  }
  return report.write() ? 0 : 1;
}
