// Figure 5 + Tables 5-7: client-side response time under the custom 50%
// read / 50% update workload for ParallelOld, CMS and G1. For each
// collector the binary prints the latency scatter (top 10000 points, as
// the paper plots), the GC pause overlay, and the latency band statistics.
// The client reaches the server over loopback TCP. The binary exits
// non-zero if a collector's longest pause is not visible in the client
// latency of an op that overlapped it, or if any op failed.
#include "bench_json.h"
#include "cassandra_common.h"

int main(int argc, char** argv) {
  using namespace mgc;
  using namespace mgc::bench;
  const BenchArgs args = parse_bench_args(argc, argv);
  banner("Figure 5 + Tables 5-7: client response time per GC strategy",
         "Figure 5(a,b,c), Tables 5, 6, 7 / §4.2");
  const int loops = loops_flag(argc, argv);

  BenchReport report("fig5", args);
  std::cout << "transport: loopback TCP, " << loops << " event loop(s)\n";

  const std::uint64_t records = cassandra_records();
  const std::uint64_t ops = cassandra_operations();
  bool ok = true;

  for (GcKind gc : main_gc_kinds()) {
    std::cout << "\n####### " << gc_name(gc) << " #######\n";
    const CassandraRun r = run_cassandra_ycsb(gc, /*stress=*/true, records,
                                              ops, /*heap_bytes_override=*/0,
                                              loops);

    // Figure 5 series: READ latency, UPDATE latency, GC pauses.
    std::vector<SeriesPoint> reads, updates, gcs;
    for (const auto& s : r.run.samples) {
      const SeriesPoint p{ns_to_s(s.start_ns - r.origin_ns),
                          ns_to_ms(s.latency_ns)};
      (s.op == kv::OpType::kRead ? reads : updates).push_back(p);
    }
    for (const PauseEvent& e : r.pause_events) {
      gcs.push_back({ns_to_s(e.start_ns - r.origin_ns), e.duration_ms()});
    }
    print_series(std::cout, std::string(gc_name(gc)) + "/READ", reads);
    print_series(std::cout, std::string(gc_name(gc)) + "/UPDATE", updates);
    print_series(std::cout, std::string(gc_name(gc)) + "/GC", gcs);

    // Tables 5 (ParallelOld), 6 (G1), 7 (CMS).
    Table t(std::string("latency statistics for ") + gc_name(gc) + " (" +
            std::to_string(r.run.samples.size()) + " operations)");
    t.header({"", "READ", "UPDATE"});
    const auto rs = ycsb::compute_latency_stats(r.run.samples,
                                                kv::OpType::kRead,
                                                r.pause_events);
    const auto us = ycsb::compute_latency_stats(r.run.samples,
                                                kv::OpType::kUpdate,
                                                r.pause_events);
    t.row({"AVG(ms)", Table::num(rs.avg_ms, 3), Table::num(us.avg_ms, 3)});
    t.row({"MAX(ms)", Table::num(rs.max_ms, 3), Table::num(us.max_ms, 3)});
    t.row({"MIN(ms)", Table::num(rs.min_ms, 3), Table::num(us.min_ms, 3)});
    report.set_collector_metric(gc, "read_avg_ms", rs.avg_ms);
    report.set_collector_metric(gc, "update_avg_ms", us.avg_ms);
    report.set_collector_metric(gc, "read_max_ms", rs.max_ms);
    report.set_collector_metric(gc, "update_max_ms", us.max_ms);
    for (std::size_t b = 0; b < rs.bands.size(); ++b) {
      t.row({rs.bands[b].label + " (%reqs)", Table::num(rs.bands[b].pct_reqs, 3),
             Table::num(us.bands[b].pct_reqs, 3)});
      t.row({rs.bands[b].label + " (%GCs)", Table::num(rs.bands[b].pct_gcs, 1),
             Table::num(us.bands[b].pct_gcs, 1)});
    }
    t.print(std::cout);
    report.add_table(t);
    std::cout << "failed ops: " << r.failed_ops() << "\n";
    if (r.failed_ops() != 0) ok = false;

    // Pause-visibility check (the reason the network path exists at all):
    // a request in flight across a stop-the-world pause cannot finish
    // before the pause does, so the max client latency overlapping the
    // longest pause must be at least the pause duration.
    const PauseEvent* longest = nullptr;
    for (const PauseEvent& e : r.pause_events) {
      if (e.start_ns < r.run.start_ns || e.end_ns > r.run.end_ns) continue;
      if (longest == nullptr ||
          e.end_ns - e.start_ns > longest->end_ns - longest->start_ns) {
        longest = &e;
      }
    }
    if (longest != nullptr) {
      double max_overlap_ms = 0;
      for (const auto& s : r.run.samples) {
        if (s.start_ns < longest->end_ns &&
            s.start_ns + s.latency_ns > longest->start_ns) {
          max_overlap_ms = std::max(max_overlap_ms, ns_to_ms(s.latency_ns));
        }
      }
      const bool visible = max_overlap_ms >= longest->duration_ms();
      std::cout << "pause-visibility check: longest pause "
                << longest->duration_ms() << " ms, max client latency "
                << "overlapping it " << max_overlap_ms << " ms ("
                << (visible ? "visible" : "NOT visible") << ")\n";
      if (!visible) ok = false;
    }
  }
  std::cout << "Expected shape: most operations sit on a low-latency line and\n"
               "fall in the 0.5x-1.5x band with 0% GC overlap; the >2x/4x/8x\n"
               "spike bands are attributed to GC pauses at (or near) 100%.\n";
  return report.write() && ok ? 0 : 1;
}
