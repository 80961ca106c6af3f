// Table 8: the qualitative verdict table — throughput and pause-time
// ratings of the three main collectors on the DaCapo suite and on the
// Cassandra-like server, derived from fresh measurements rather than
// hard-coded.
#include <algorithm>
#include <map>

#include "bench_json.h"
#include "cassandra_common.h"

namespace {

struct Measured {
  double dacapo_total_s = 0;    // total time over the stable subset
  double dacapo_max_pause = 0;  // seconds
  double cass_ops_s = 0;        // transaction-phase throughput
  double cass_max_pause = 0;    // seconds
  std::uint64_t cass_failed_ops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mgc;
  using namespace mgc::bench;
  using namespace mgc::dacapo;
  const BenchArgs args = parse_bench_args(argc, argv);
  banner("Table 8: advantages and disadvantages of the three main GCs",
         "Table 8 / §6");

  BenchReport report("table8", args);

  std::map<GcKind, Measured> results;

  for (GcKind gc : main_gc_kinds()) {
    Measured& mres = results[gc];
    for (const std::string& name : {std::string("xalan"), std::string("pmd"),
                                    std::string("h2")}) {
      HarnessOptions opts;
      opts.iterations = 6;
      opts.system_gc_between_iterations = true;  // the paper's default mode
      const HarnessResult res =
          run_benchmark(paper_baseline(gc), name, opts);
      mres.dacapo_total_s += res.total_s;
      mres.dacapo_max_pause = std::max(mres.dacapo_max_pause, res.pauses.max_s);
    }
    const CassandraRun r = run_cassandra_ycsb(
        gc, /*stress=*/true, cassandra_records() / 2,
        cassandra_operations() / 2);
    mres.cass_ops_s = r.run.throughput_ops_s();
    mres.cass_max_pause = r.pauses.max_s;
    mres.cass_failed_ops = r.failed_ops();
  }

  // Rate relative to the best measurement in each column.
  double best_dacapo = 1e300, best_cass = 0, least_dacapo_pause = 1e300,
         least_cass_pause = 1e300;
  for (auto& [gc, mres] : results) {
    best_dacapo = std::min(best_dacapo, mres.dacapo_total_s);
    best_cass = std::max(best_cass, mres.cass_ops_s);
    least_dacapo_pause = std::min(least_dacapo_pause, mres.dacapo_max_pause);
    least_cass_pause = std::min(least_cass_pause, mres.cass_max_pause);
  }
  auto rate_throughput = [](double ratio) {
    if (ratio <= 1.10) return "good";
    if (ratio <= 1.35) return "fairly good";
    return "bad";
  };
  auto rate_pause = [](double ratio) {
    if (ratio <= 1.5) return "short";
    if (ratio <= 8.0) return "acceptable";
    if (ratio <= 40.0) return "significant";
    return "unacceptable";
  };

  Table t("measured verdicts (rated against the best collector per column)");
  t.header({"GC", "Experiment", "Throughput", "Pause Time",
            "(total s / max pause ms)", "failed ops"});
  for (GcKind gc : main_gc_kinds()) {
    const Measured& mres = results[gc];
    t.row({gc_traits(gc).short_name, "DaCapo",
           rate_throughput(mres.dacapo_total_s / best_dacapo),
           rate_pause(mres.dacapo_max_pause / least_dacapo_pause),
           Table::num(mres.dacapo_total_s, 2) + " / " +
               Table::num(mres.dacapo_max_pause * 1e3, 1),
           "-"});
    t.row({gc_traits(gc).short_name, "Cassandra",
           rate_throughput(best_cass / std::max(1.0, mres.cass_ops_s)),
           rate_pause(mres.cass_max_pause / least_cass_pause),
           Table::num(mres.cass_ops_s, 0) + " ops/s / " +
               Table::num(mres.cass_max_pause * 1e3, 1),
           std::to_string(mres.cass_failed_ops)});
    report.set_collector_metric(gc, "dacapo_total_s", mres.dacapo_total_s);
    report.set_collector_metric(gc, "dacapo_max_pause_ms",
                                mres.dacapo_max_pause * 1e3);
    report.set_collector_metric(gc, "cassandra_max_pause_ms",
                                mres.cass_max_pause * 1e3);
  }
  t.print(std::cout);
  report.add_table(t);
  std::cout << "Paper's verdicts: ParallelOld {DaCapo: good/short, Cassandra:\n"
               "good/unacceptable}; CMS {fairly good/acceptable, fairly\n"
               "good/significant}; G1 {bad/unacceptable (with system GC),\n"
               "fairly good/significant}.\n";
  return report.write() ? 0 : 1;
}
