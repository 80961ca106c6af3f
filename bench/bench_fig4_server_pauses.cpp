// §4.1 + Figure 4: server-side GC pauses of the Cassandra-like store under
// the YCSB load. First the ParallelOld narrative (default vs stress
// configuration), then the Figure 4 pause timelines for CMS and G1 under
// the stress configuration.
#include "bench_json.h"
#include "cassandra_common.h"

int main(int argc, char** argv) {
  using namespace mgc;
  using namespace mgc::bench;
  const BenchArgs args = parse_bench_args(argc, argv);
  banner("Figure 4 + §4.1: GC pauses on the Cassandra-like server",
         "Figure 4 / §4.1");
  const int loops = loops_flag(argc, argv);

  BenchReport report("fig4", args);

  const std::uint64_t records = cassandra_records();
  const std::uint64_t ops = cassandra_operations();
  std::cout << "records=" << records << " (1KB rows), operations=" << ops
            << ", 50% read / 50% update over loopback TCP\n";

  Table summary("server-side pause summary");
  summary.header({"GC", "config", "pauses", "full", "max pause (ms)",
                  "avg pause (ms)", "total paused (ms)", "flushes",
                  "failed ops"});

  // ParallelOld: default configuration (§4.1 first experiment) ...
  {
    const CassandraRun r = run_cassandra_ycsb(GcKind::kParallelOld,
                                              /*stress=*/false, records, ops,
                                              /*heap_bytes_override=*/0, loops);
    summary.row({"ParallelOldGC", "default", std::to_string(r.pauses.pauses),
                 std::to_string(r.pauses.full_pauses),
                 Table::num(r.pauses.max_s * 1e3),
                 Table::num(r.pauses.avg_s * 1e3),
                 Table::num(r.pauses.total_s * 1e3), std::to_string(r.flushes),
                 std::to_string(r.failed_ops())});
    report.set_collector_metric(GcKind::kParallelOld, "default_max_pause_ms",
                                r.pauses.max_s * 1e3);
    report.set_collector_metric(GcKind::kParallelOld, "default_avg_pause_ms",
                                r.pauses.avg_s * 1e3);
  }

  // ... and the three main collectors under the stress configuration.
  for (GcKind gc : main_gc_kinds()) {
    const CassandraRun r = run_cassandra_ycsb(gc, /*stress=*/true, records,
                                              ops, /*heap_bytes_override=*/0,
                                              loops);
    summary.row({gc_name(gc), "stress", std::to_string(r.pauses.pauses),
                 std::to_string(r.pauses.full_pauses),
                 Table::num(r.pauses.max_s * 1e3),
                 Table::num(r.pauses.avg_s * 1e3),
                 Table::num(r.pauses.total_s * 1e3), std::to_string(r.flushes),
                 std::to_string(r.failed_ops())});
    report.set_collector_metric(gc, "stress_max_pause_ms",
                                r.pauses.max_s * 1e3);
    report.set_collector_metric(gc, "stress_avg_pause_ms",
                                r.pauses.avg_s * 1e3);
    report.set_collector_metric(gc, "stress_total_pause_ms",
                                r.pauses.total_s * 1e3);
    if (gc == GcKind::kCms || gc == GcKind::kG1) {
      // Figure 4's scatter: pause duration vs elapsed time.
      std::vector<SeriesPoint> pts;
      for (const PauseEvent& e : r.pause_events) {
        pts.push_back({ns_to_s(e.start_ns - r.origin_ns), e.duration_ms()});
      }
      print_series(std::cout, std::string("fig4/") + gc_name(gc), pts);
    }
  }
  summary.print(std::cout);
  report.add_table(summary);
  std::cout << "Expected shape: under stress, ParallelOld's full collections\n"
               "dwarf every other pause in the study (the paper saw minutes);\n"
               "CMS and G1 stay an order of magnitude lower but still far\n"
               "above their DaCapo-scale pauses.\n";
  return report.write() ? 0 : 1;
}
