#include "bench_reports.h"

#include <algorithm>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "cassandra_common.h"
#include "runtime/heap_verifier.h"
#include "runtime/vm.h"

namespace mgc::bench {

namespace {

// Epsilon must hold a workload's entire allocation volume: nothing is
// ever reclaimed. 40% headroom covers TLAB tail waste and run-to-run
// allocation jitter; the floor keeps tiny quick runs comfortable.
std::size_t epsilon_heap_bytes(std::uint64_t allocated_bytes) {
  const auto sized = static_cast<std::size_t>(
      static_cast<double>(allocated_bytes) * 1.4);
  return std::max<std::size_t>(sized + 8 * MiB, 64 * MiB);
}

VmConfig epsilon_config(std::uint64_t allocated_bytes) {
  VmConfig cfg = VmConfig::baseline(GcKind::kEpsilon);
  cfg.heap_bytes = epsilon_heap_bytes(allocated_bytes);
  // Keep a small eden: Epsilon bumps through eden first and then treats
  // the old generation as more bump space, so the split is cosmetic, but
  // a paper-geometry young size would waste the survivor halves.
  cfg.young_bytes = std::min<std::size_t>(cfg.heap_bytes / 4, 16 * MiB);
  return cfg;
}

struct PauseStats {
  RunningStats roots_us, cards_us, evac_us, term_us, steals;
  RunningStats young_ms;  // kYoungGc pauses only
  std::vector<double> pause_ms;
  GcFailureCounters fails;

  explicit PauseStats(const std::vector<PauseEvent>& events) {
    for (const PauseEvent& e : events) {
      pause_ms.push_back(e.duration_ms());
      if (e.kind == PauseKind::kYoungGc) young_ms.add(e.duration_ms());
      if (e.phases.any()) {
        roots_us.add(static_cast<double>(e.phases.root_scan_ns) / 1e3);
        cards_us.add(static_cast<double>(e.phases.card_scan_ns) / 1e3);
        evac_us.add(static_cast<double>(e.phases.evac_drain_ns) / 1e3);
        term_us.add(static_cast<double>(e.phases.termination_ns) / 1e3);
        steals.add(static_cast<double>(e.phases.steals));
      }
      fails.promotion_failures += e.failures.promotion_failures;
      fails.concurrent_mode_failures += e.failures.concurrent_mode_failures;
      fails.evacuation_failures += e.failures.evacuation_failures;
    }
  }
  double p99_ms() const {
    return pause_ms.empty() ? 0.0 : percentile_of(pause_ms, 99.0);
  }
};

// Worker-count sweep, system GC off: the parallel young collectors rerun
// with one GC worker against their default-count run from Figure 1(b).
// parallel_speedup is the 1-worker average young pause over the default
// one (above 1: the extra workers pay off). It is recorded under "config",
// not as a guarded metric: higher is better, and on a 1-CPU host it only
// measures the scheduler.
void add_worker_sweep(
    BenchReport& report, int iterations,
    const std::map<GcKind, std::vector<PauseEvent>>& default_runs) {
  std::cout << "\n--- GC worker sweep, system GC off ---\n";
  Table sweep("xalan young pauses by GC worker count, system GC off");
  sweep.header({"GC", "workers", "young pauses", "avg young (ms)",
                "evac (us)", "term (us)", "steals", "speedup"});
  Json speedups = Json::object();
  for (GcKind gc : {GcKind::kParNew, GcKind::kParallelOld, GcKind::kG1}) {
    const auto def = default_runs.find(gc);
    if (def == default_runs.end()) continue;  // narrowed by MGC_GC
    VmConfig one = paper_baseline(gc);
    one.gc_threads = 1;
    dacapo::HarnessOptions opts;
    opts.iterations = iterations;
    opts.system_gc_between_iterations = false;
    const PauseStats st1(
        dacapo::run_benchmark(one, "xalan", opts).pause_events);
    const PauseStats stn(def->second);
    const double speedup = stn.young_ms.mean() > 0.0
                               ? st1.young_ms.mean() / stn.young_ms.mean()
                               : 0.0;
    auto row = [&](int workers, const PauseStats& st, const std::string& x) {
      sweep.row({gc_name(gc), std::to_string(workers),
                 std::to_string(st.young_ms.count()),
                 Table::num(st.young_ms.mean()), Table::num(st.evac_us.mean(), 1),
                 Table::num(st.term_us.mean(), 1),
                 Table::num(st.steals.mean(), 1), x});
    };
    row(1, st1, "");
    row(paper_baseline(gc).effective_gc_threads(), stn,
        Table::num(speedup, 2));
    speedups.set(gc_name(gc), Json(speedup));
  }
  sweep.print(std::cout);
  report.add_table(sweep);
  report.set_config("parallel_speedup", speedups);
}

}  // namespace

Json make_fig1_report(const BenchArgs& args) {
  BenchReport report("fig1", args);
  const int iterations = args.quick ? 4 : 10;
  report.set_config("iterations", Json(iterations));
  std::map<GcKind, std::vector<PauseEvent>> nosysgc_runs;

  for (const bool system_gc : {true, false}) {
    const std::string mode = system_gc ? "sysgc" : "nosysgc";
    std::cout << "\n--- Figure 1(" << (system_gc ? "a) System GC" : "b) No System GC")
              << " ---\n";
    Table summary(std::string("xalan pause summary, system GC ") +
                  (system_gc ? "on" : "off"));
    summary.header({"GC", "pauses", "full", "max pause (ms)", "avg pause (ms)",
                    "p99 pause (ms)", "roots (us)", "cards (us)", "evac (us)",
                    "term (us)", "steals", "promo-fail", "cms-fail",
                    "evac-fail", "total exec (s)"});
    for (GcKind gc : bench_gc_kinds()) {
      dacapo::HarnessOptions opts;
      opts.iterations = iterations;
      opts.system_gc_between_iterations = system_gc;
      const dacapo::HarnessResult res =
          dacapo::run_benchmark(paper_baseline(gc), "xalan", opts);

      std::vector<SeriesPoint> pts;
      for (const PauseEvent& e : res.pause_events) {
        pts.push_back({ns_to_s(e.start_ns - res.vm_origin_ns),
                       e.duration_ms()});
      }
      print_series(std::cout,
                   std::string(gc_name(gc)) + "/" + mode, pts);
      const PauseStats st(res.pause_events);
      if (!system_gc) nosysgc_runs.emplace(gc, res.pause_events);
      summary.row({gc_name(gc), std::to_string(res.pauses.pauses),
                   std::to_string(res.pauses.full_pauses),
                   Table::num(res.pauses.max_s * 1e3),
                   Table::num(res.pauses.avg_s * 1e3),
                   Table::num(st.p99_ms()),
                   Table::num(st.roots_us.mean(), 1),
                   Table::num(st.cards_us.mean(), 1),
                   Table::num(st.evac_us.mean(), 1),
                   Table::num(st.term_us.mean(), 1),
                   Table::num(st.steals.mean(), 1),
                   std::to_string(st.fails.promotion_failures),
                   std::to_string(st.fails.concurrent_mode_failures),
                   std::to_string(st.fails.evacuation_failures),
                   Table::num(res.total_s, 3)});

      // The guarded trajectory: pause-time statistics plus the PR 2
      // critical-path phase counters (word-wise card scan, chunked root
      // scan) whose loss would show up here as a many-fold jump.
      report.set_collector_metric(gc, mode + "_pauses",
                                  static_cast<double>(res.pauses.pauses));
      report.set_collector_metric(gc, mode + "_full_pauses",
                                  static_cast<double>(res.pauses.full_pauses));
      report.set_collector_metric(gc, mode + "_max_pause_ms",
                                  res.pauses.max_s * 1e3);
      report.set_collector_metric(gc, mode + "_avg_pause_ms",
                                  res.pauses.avg_s * 1e3);
      report.set_collector_metric(gc, mode + "_p99_pause_ms", st.p99_ms());
      report.set_collector_metric(gc, mode + "_root_scan_us_avg",
                                  st.roots_us.mean());
      report.set_collector_metric(gc, mode + "_card_scan_us_avg",
                                  st.cards_us.mean());
      report.set_collector_metric(
          gc, mode + "_degraded_pauses",
          static_cast<double>(st.fails.promotion_failures +
                              st.fails.concurrent_mode_failures +
                              st.fails.evacuation_failures));
    }
    summary.print(std::cout);
    report.add_table(summary);
  }
  add_worker_sweep(report, iterations, nosysgc_runs);
  return report.to_json();
}

double calibrate_barrier_ns_per_op() {
  // Price one card-table barrier operation: the identical reference-store
  // loop under Serial (card barrier active, holder tenured into the old
  // generation) and under Epsilon (stores run bare); the per-op delta is
  // the barrier cost. Epsilon is the control rather than "barrier code
  // commented out", so both sides pay the same set_ref call overhead.
  const std::uint64_t kStores = 1'000'000;
  auto store_loop_ns = [&](GcKind gc) {
    // Real MiB, not paper units: the loop only keeps two objects live.
    VmConfig cfg = VmConfig::baseline(gc);
    cfg.heap_bytes = 64 * MiB;
    cfg.young_bytes = 16 * MiB;
    Vm vm(cfg);
    Vm::MutatorScope scope(vm, "calibrate");
    Mutator& m = scope.mutator();
    Local holder(m, m.alloc(/*num_refs=*/2, /*payload_words=*/2));
    Local value(m, m.alloc(/*num_refs=*/0, /*payload_words=*/2));
    if (gc != GcKind::kEpsilon) {
      // Two full collections tenure both objects into the old generation,
      // arming the generational post-barrier for every store below.
      m.system_gc();
      m.system_gc();
    }
    Stopwatch sw;
    for (std::uint64_t i = 0; i < kStores; ++i) {
      m.set_ref(holder.get(), i & 1, value.get());
    }
    return static_cast<double>(sw.elapsed_ns());
  };
  const double with_barrier = store_loop_ns(GcKind::kSerial);
  const double without = store_loop_ns(GcKind::kEpsilon);
  return std::max(0.0, (with_barrier - without) /
                           static_cast<double>(kStores));
}

Json make_distilled_report(const BenchArgs& args) {
  BenchReport report("distilled", args);
  const double barrier_ns = calibrate_barrier_ns_per_op();
  report.set_config("barrier_ns_per_op", Json(barrier_ns));
  std::cout << "calibrated card-barrier cost: " << barrier_ns << " ns/op\n";

  const std::vector<std::string> kernels =
      args.quick ? std::vector<std::string>{"xalan"}
                 : std::vector<std::string>{"xalan", "lusearch"};
  const int iterations = args.quick ? 3 : 6;
  report.set_config("iterations", Json(iterations));

  auto add_cost_row = [&](Table& t, BenchReport& rep,
                          const std::string& workload, GcKind gc,
                          const GcCostSnapshot& cost, double wall_s,
                          double epsilon_wall_s) {
    const double pause_ms = static_cast<double>(cost.pause_ns) / 1e6;
    const double slow_ms = static_cast<double>(cost.alloc_slow_ns) / 1e6;
    const double barrier_ms =
        barrier_ns * static_cast<double>(cost.barrier_ops()) / 1e6;
    const double conc_ms = static_cast<double>(cost.concurrent_ns) / 1e6;
    const double total_ms =
        static_cast<double>(cost.total_ns(barrier_ns)) / 1e6;
    const double overhead_pct =
        epsilon_wall_s > 0.0 ? (wall_s / epsilon_wall_s - 1.0) * 100.0 : 0.0;
    t.row({gc_name(gc), Table::num(pause_ms), Table::num(slow_ms),
           std::to_string(cost.barrier_ops()), Table::num(barrier_ms),
           Table::num(conc_ms), std::to_string(cost.concurrent_cycles),
           Table::num(total_ms), Table::num(wall_s, 3),
           Table::pct(overhead_pct)});
    rep.set_collector_metric(gc, workload + "_pause_ms", pause_ms);
    rep.set_collector_metric(gc, workload + "_alloc_slow_ms", slow_ms);
    rep.set_collector_metric(gc, workload + "_total_cost_ms", total_ms);
    // Barrier-op and concurrent-cycle counts stay table-only: both swing
    // multi-fold with collection timing (when a region turns old, whether
    // a background cycle fires), too noisy for a lower-is-better guard.
    if (gc == GcKind::kEpsilon) {
      // Structural invariants of the baseline: zero collections, zero
      // barrier work — "_exact" makes any non-zero fresh value fail.
      rep.set_collector_metric(gc, workload + "_pauses_exact",
                               static_cast<double>(cost.pauses));
      rep.set_collector_metric(gc, workload + "_barrier_ops_exact",
                               static_cast<double>(cost.barrier_ops()));
    }
  };

  // --- dacapo kernels ---------------------------------------------------------
  for (const std::string& kernel : kernels) {
    std::cout << "\n--- distilled cost: " << kernel << " ---\n";
    Table t("distilled GC cost, " + kernel);
    t.header({"GC", "pause (ms)", "alloc-slow (ms)", "barrier ops",
              "barrier (ms)", "concurrent (ms)", "conc cycles",
              "total cost (ms)", "wall (s)", "overhead vs Epsilon"});

    dacapo::HarnessOptions opts;
    opts.iterations = iterations;
    opts.system_gc_between_iterations = false;  // no forced collections:
    // the distillation measures the collectors' *own* policy costs.

    struct Run {
      GcKind gc;
      dacapo::HarnessResult res;
    };
    std::vector<Run> runs;
    std::uint64_t alloc_volume = 0;
    for (GcKind gc : bench_gc_kinds()) {
      runs.push_back({gc, dacapo::run_benchmark(paper_baseline(gc), kernel,
                                                opts)});
      alloc_volume = std::max(alloc_volume, runs.back().res.allocated_bytes);
    }

    const dacapo::HarnessResult eps =
        dacapo::run_benchmark(epsilon_config(alloc_volume), kernel, opts);
    const double eps_wall = eps.total_s;

    add_cost_row(t, report, kernel, GcKind::kEpsilon, eps.cost, eps_wall,
                 eps_wall);
    for (const Run& r : runs) {
      add_cost_row(t, report, kernel, r.gc, r.res.cost, r.res.total_s,
                   eps_wall);
    }
    t.print(std::cout);
    report.add_table(t);
  }

  // --- YCSB kv workload -------------------------------------------------------
  {
    std::cout << "\n--- distilled cost: ycsb ---\n";
    Table t("distilled GC cost, YCSB 50/50 kv workload");
    t.header({"GC", "pause (ms)", "alloc-slow (ms)", "barrier ops",
              "barrier (ms)", "concurrent (ms)", "conc cycles",
              "total cost (ms)", "wall (s)", "overhead vs Epsilon"});

    const std::uint64_t records = args.quick ? 1500 : cassandra_records();
    const std::uint64_t operations =
        args.quick ? 8000 : cassandra_operations();

    struct Run {
      GcKind gc;
      CassandraRun res;
    };
    std::vector<Run> runs;
    std::uint64_t alloc_volume = 0;
    for (GcKind gc : bench_gc_kinds()) {
      runs.push_back(
          {gc, run_cassandra_ycsb(gc, /*stress=*/false, records, operations)});
      alloc_volume = std::max(alloc_volume, runs.back().res.allocated_bytes);
    }

    const CassandraRun eps = run_cassandra_ycsb(
        GcKind::kEpsilon, /*stress=*/false, records, operations,
        epsilon_heap_bytes(alloc_volume));
    const double eps_wall = eps.load.duration_s() + eps.run.duration_s();

    add_cost_row(t, report, "ycsb", GcKind::kEpsilon, eps.cost, eps_wall,
                 eps_wall);
    for (const Run& r : runs) {
      add_cost_row(t, report, "ycsb", r.gc, r.res.cost,
                   r.res.load.duration_s() + r.res.run.duration_s(), eps_wall);
    }
    t.print(std::cout);
    report.add_table(t);
  }

  return report.to_json();
}

}  // namespace mgc::bench
