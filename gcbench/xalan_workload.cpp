// xalan-parnew / xalan-g1: the DaCapo xalan kernel on 2 mutators, no
// forced system GC, warm-up iterations in set-up, then back-to-back timed
// iterations until the window closes. Drives the kernel only through
// dacapo::make_benchmark / setup / run_iteration and reads the collector
// through the GcLog and the cost snapshot.
#include <memory>

#include "bench.h"
#include "dacapo/workload.h"
#include "runtime/heap_verifier.h"
#include "runtime/vm.h"
#include "support/clock.h"

namespace gcbench {
namespace {

// Two mutators leave room on a 4-CPU host for the collector's concurrent
// thread: with one mutator per CPU, the iteration time followed the host's
// steal (34-89 ms across runs against 23-25 ms with two; NOTES.md).
constexpr int kMutators = 2;
constexpr int kWarmupIterations = 5;
constexpr double kPauseSloMs = 10.0;

// Same per-iteration seed schedule as dacapo::run_benchmark.
std::uint64_t iteration_seed(std::uint64_t seed, int it) {
  return seed + static_cast<std::uint64_t>(it) * 7919;
}

struct Iteration {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_ms = 0.0;
  bool ok = false;
};

}  // namespace

Outcome run_xalan(const Args& args, const Trial& trial, mgc::GcKind gc,
                  Progress& progress) {
  using namespace mgc;
  Outcome out;
  const VmConfig cfg = VmConfig::baseline(gc);

  // Set-up: a fresh VM, the kernel's long-lived state, warm-up iterations.
  Stopwatch setup_watch;
  auto vm = std::make_unique<Vm>(cfg);
  std::unique_ptr<dacapo::Benchmark> bench = dacapo::make_benchmark("xalan");
  bench->setup(*vm, trial.seed);
  for (int w = 0; w < kWarmupIterations; ++w) {
    bench->run_iteration(*vm, kMutators, iteration_seed(trial.seed, w));
  }
  const double setup_s = setup_watch.elapsed_s();
  progress.publish_vm(vm.get());

  // Timed window. With tracing on, iterations starting in a traced slice
  // record spans; the others give the untraced reference.
  const GcCostSnapshot cost0 = vm->cost_snapshot();
  const std::uint64_t alloc0 = vm->total_allocated_bytes();
  const HostWindow host;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(trial.seconds * 1e9);
  progress.window_end_ns.store(end);
  std::vector<Iteration> iters;
  {
    const WindowFaults faults(args.fault);
    for (int it = kWarmupIterations; now_ns() < end; ++it) {
      Iteration r;
      r.start_ns = now_ns();
      const std::int64_t cpu0 = process_cpu_ns();
      progress.attempted.fetch_add(1);
      try {
        bench->run_iteration(*vm, kMutators, iteration_seed(trial.seed, it));
        r.ok = true;
      } catch (const std::exception&) {
        progress.failed.fetch_add(1);  // a failed op, not a wrong output
      }
      r.end_ns = now_ns();
      r.cpu_ms = ns_to_ms(process_cpu_ns() - cpu0);
      progress.completed.fetch_add(1);
      iters.push_back(r);
    }
  }
  const std::int64_t stop = now_ns();
  const GcCostSnapshot cost1 = vm->cost_snapshot();
  const std::uint64_t alloc1 = vm->total_allocated_bytes();
  std::vector<Metric> host_metrics;
  host.finish(&host_metrics);

  // Correctness, outside the timed window.
  {
    Vm::MutatorScope scope(*vm, "gcbench-verify");
    const VerifyReport rep = verify_heap_at_safepoint(scope.mutator());
    for (const std::string& p : rep.problems) {
      out.problems.push_back("heap verifier: " + p);
    }
  }
  const std::vector<PauseEvent> window =
      pauses_in(vm->gc_log().snapshot(), start, stop);
  progress.publish_vm(nullptr);

  // --- end to end ---
  std::vector<double> iter_ms, iter_untraced_ms, iter_traced_ms, pause_ms;
  std::size_t failed = 0;
  for (const Iteration& r : iters) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    const double ms = ns_to_ms(r.end_ns - r.start_ns);
    iter_ms.push_back(ms);
    (in_traced_slice(args.trace, start, r.start_ns) ? iter_traced_ms : iter_untraced_ms)
        .push_back(ms);
  }
  std::size_t within_slo = 0;
  for (const PauseEvent& e : window) {
    pause_ms.push_back(e.duration_ms());
    if (e.duration_ms() <= kPauseSloMs) ++within_slo;
  }
  out.attempted = iters.size();
  out.failed = failed;
  out.samples.setup_s = {setup_s};
  out.samples.iter_ms = iter_ms;
  out.samples.pause_ms = pause_ms;
  // A xalan mutator's client-visible latency is its stall: the pause.
  out.samples.lat_ms = pause_ms;
  out.samples.slo_met = within_slo;
  out.samples.slo_total = pause_ms.size();

  // --- per layer ---
  auto& layer = out.per_layer;
  const double window_s = ns_to_s(stop - start);
  add_gc_layer_metrics(window, cost0, cost1, alloc1 - alloc0, window_s,
                       cfg.heap_bytes, &layer);
  std::vector<double> cpu_ms;
  for (const Iteration& r : iters) cpu_ms.push_back(r.cpu_ms);
  layer.push_back({"dacapo.iter_cpu_ms_p50", median(cpu_ms), "ms", cpu_ms.size()});
  layer.insert(layer.end(), host_metrics.begin(), host_metrics.end());

  if (args.trace) {
    // Iteration spans, each with the pauses it overlapped as children and
    // the pause phases (critical-path durations, laid end to end from the
    // pause start) as grandchildren. Self time of an iteration = mutator time.
    std::vector<Span> spans;
    std::uint64_t next_id = 1;
    std::int64_t iter_total = 0, mutator_total = 0;
    for (const Iteration& r : iters) {
      if (!in_traced_slice(true, start, r.start_ns) || !r.ok) continue;
      const std::uint64_t iter_id = next_id++;
      spans.push_back({iter_id, 0, "dacapo.iteration", r.start_ns, r.end_ns});
      for (const PauseEvent& e : window) {
        if (e.end_ns <= r.start_ns || e.start_ns >= r.end_ns) continue;
        const std::uint64_t pause_id = next_id++;
        spans.push_back({pause_id, iter_id, pause_kind_name(e.kind), e.start_ns,
                         e.end_ns});
        std::int64_t t = e.start_ns;
        const std::pair<const char*, std::int64_t> phases[] = {
            {"gc.root_scan", e.phases.root_scan_ns},
            {"gc.card_scan", e.phases.card_scan_ns},
            {"gc.evac_drain", e.phases.evac_drain_ns}};
        for (const auto& [name, ns] : phases) {
          if (ns == 0) continue;
          spans.push_back({next_id++, pause_id, name, t, t + ns});
          t += ns;
        }
      }
      iter_total += r.end_ns - r.start_ns;
      mutator_total += (r.end_ns - r.start_ns) -
                       pause_overlap_ns(window, r.start_ns, r.end_ns);
    }
    layer.push_back({"dacapo.mutator_share",
                     iter_total == 0 ? 0.0
                                     : static_cast<double>(mutator_total) /
                                           static_cast<double>(iter_total),
                     "share", iter_traced_ms.size()});
    const double untraced = median(iter_untraced_ms);
    layer.push_back({"trace.overhead_share",
                     untraced == 0.0 ? 0.0 : median(iter_traced_ms) / untraced - 1.0,
                     "share", iter_traced_ms.size()});
    const std::string path = trace_path(args, trial);
    if (!write_spans(path, spans, start)) {
      out.problems.push_back("cannot write spans to " + path);
    }
  }

  out.stamp.emplace_back("mutators", std::to_string(kMutators));
  out.stamp.emplace_back("gc_threads", std::to_string(cfg.effective_gc_threads()));
  bench.reset();
  vm.reset();
  return out;
}

}  // namespace gcbench
