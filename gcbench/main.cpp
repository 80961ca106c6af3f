// gcbench: the repository benchmark binary.
//
//   gcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--fault <spec>] [--inject-stall <0|1>] [--trace-dir <dir>]
//           [--git-sha <sha>]
//
// Runs one workload (xalan-parnew, xalan-g1, ycsb-parallelold, ycsb-cms),
// checks its outputs, and prints a report: a stamp line, one line per
// metric with its unit and sample count, and as the last line one JSON
// object {correct, attempted, failed, metrics}. With --trace 0 the object
// carries the guarded end-to-end metrics; with --trace 1 the per-layer
// metrics of a run that records spans in alternating slices of its timed
// windows. Exit status: 0 when every check
// passed, 1 when a check failed, 2 on a usage error, 3 when the run
// overran its deadline (the report then names the layer that stalled).
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.h"
#include "runtime/gc_kind.h"
#include "support/clock.h"
#include "support/fault.h"
#include "support/rng.h"

namespace gcbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed for every workload; see NOTES.md for what each means on the
// xalan and the ycsb workloads.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"iter_p50_ms", "ms"}, {"pause_p50_ms", "ms"},
    {"pause_p99_ms", "ms"},   {"lat_p50_ms", "ms"},  {"lat_p99_ms", "ms"},
    {"lat_p999_ms", "ms"},    {"slo_share", "share"},
};

// The end-to-end metrics the result object carries (BENCHMARK.json guards
// them). The pause and latency percentiles are printed but left out: on a
// shared 4-CPU host they moved by 20-300% between runs of the same code as
// the host's load came and went (see NOTES.md, "Measured spreads").
constexpr const char* kResultEndToEnd[] = {"setup_s", "iter_p50_ms",
                                           "slo_share"};

// Layers a workload does not exercise report 0 with 0 samples.
constexpr MetricDef kPerLayer[] = {
    {"runtime.alloc_slow_ms", "ms"},
    {"runtime.alloc_mb_per_s", "MiB/s"},
    {"runtime.barrier_ops", "count"},
    {"runtime.pause_unattributed_share", "share"},
    {"gc.young_pause_p50_ms", "ms"},
    {"gc.young_pause_p99_ms", "ms"},
    {"gc.full_pauses", "count"},
    {"gc.degraded_pauses", "count"},
    {"gc.root_scan_us_p50", "us"},
    {"gc.card_scan_us_p50", "us"},
    {"gc.evac_drain_us_p50", "us"},
    {"gc.pause_share", "share"},
    {"gc.concurrent_cpu_s", "s"},
    {"gc.concurrent_cycles", "count"},
    {"gc.reclaimed_mb_per_pause_ms", "MiB/ms"},
    {"heap.used_after_full_share", "share"},
    {"dacapo.iter_cpu_ms_p50", "ms"},
    {"dacapo.mutator_share", "share"},
    {"kvstore.service_us_p50", "us"},
    {"kvstore.service_us_p99", "us"},
    {"kvstore.rejected", "count"},
    {"kvstore.shed", "count"},
    {"kvstore.flushes", "count"},
    {"net.overhead_us_p50", "us"},
    {"net.protocol_errors", "count"},
    {"net.dropped_responses", "count"},
    {"ycsb.late_p99_ms", "ms"},
    {"ycsb.read_p99_ms", "ms"},
    {"ycsb.update_p99_ms", "ms"},
    {"ycsb.client_cpu_s", "s"},
    {"host.cores", "count"},
    {"host.steal_share", "share"},
    {"host.involuntary_ctx_switches", "count"},
    {"process.cpu_s", "s"},
    {"trace.overhead_share", "share"},
};

// Independent trials per run; each measures --seconds / kTrials. Host
// noise on a shared 4-CPU machine moves single trials by up to 50%, so the
// run reports the median of seven.
constexpr int kTrials = 7;
// An open loop only measures the server while its generator keeps to the
// schedule: a run whose ycsb.late_p99_ms exceeds this share of its
// lat_p99_ms does not count.
constexpr double kMaxLateShare = 0.5;
// The whole process must end well inside three minutes.
constexpr std::int64_t kProcessBudgetNs = 165'000'000'000;
// How long after the timed window closes a run may take to drain and check.
constexpr std::int64_t kAfterWindowNs = 25'000'000'000;

int usage(const char* why) {
  std::cerr << "gcbench: " << why
            << "\nusage: gcbench --workload <xalan-parnew|xalan-g1|"
               "ycsb-parallelold|ycsb-cms> --seed <n> --seconds <s> "
               "--trace <0|1> [--fault <spec>] [--inject-stall <0|1>] "
               "[--trace-dir <dir>] [--git-sha <sha>]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + key;
      return false;
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a->workload = val;
      else if (key == "--seed") a->seed = std::stoull(val);
      else if (key == "--seconds") a->seconds = std::stoi(val);
      else if (key == "--trace") a->trace = std::stoi(val) != 0;
      else if (key == "--fault") a->fault = val;
      else if (key == "--inject-stall") a->inject_stall = std::stoi(val) != 0;
      else if (key == "--trace-dir") a->trace_dir = val;
      else if (key == "--git-sha") a->git_sha = val;
      else {
        *err = "unknown argument " + key;
        return false;
      }
    } catch (const std::exception&) {
      *err = "bad value for " + key + ": " + val;
      return false;
    }
  }
  if (!known_workload(a->workload)) {
    *err = "unknown workload '" + a->workload + "'";
    return false;
  }
  if (a->seconds < 1 || a->seconds > 120) {
    *err = "--seconds must be in [1, 120]";
    return false;
  }
  if (a->trace && a->trace_dir.empty()) a->trace_dir = ".";
  return true;
}

mgc::GcKind workload_gc(const std::string& w) {
  if (w == "xalan-parnew") return mgc::GcKind::kParNew;
  if (w == "xalan-g1") return mgc::GcKind::kG1;
  if (w == "ycsb-parallelold") return mgc::GcKind::kParallelOld;
  return mgc::GcKind::kCms;
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream o;
  o.precision(17);
  o << v;
  return o.str();
}

// The end-to-end metrics, in kEndToEnd order, from one trial's samples.
std::vector<Metric> end_to_end_metrics(const EndToEndSamples& s) {
  std::vector<double> pause = s.pause_ms, lat = s.lat_ms;
  return {
      {"setup_s", median(s.setup_s), "s", s.setup_s.size()},
      {"iter_p50_ms", median(s.iter_ms), "ms", s.iter_ms.size()},
      {"pause_p50_ms", quantile(pause, 0.50), "ms", pause.size()},
      {"pause_p99_ms", quantile(pause, 0.99), "ms", pause.size()},
      {"lat_p50_ms", quantile(lat, 0.50), "ms", lat.size()},
      {"lat_p99_ms", quantile(lat, 0.99), "ms", lat.size()},
      {"lat_p999_ms", quantile(lat, 0.999), "ms", lat.size()},
      {"slo_share",
       s.slo_total == 0 ? 0.0
                        : static_cast<double>(s.slo_met) / static_cast<double>(s.slo_total),
       "share", s.slo_total},
  };
}

// Position of `name` in a metric table; the tables are constants, so a
// miss is a programming error.
template <std::size_t N>
std::size_t metric_index(const MetricDef (&defs)[N], const char* name) {
  for (std::size_t i = 0; i < N; ++i) {
    if (std::string_view(defs[i].name) == name) return i;
  }
  std::abort();
}

// `have` in the order of `defs`; metrics a workload does not produce
// report 0 with 0 samples.
std::vector<Metric> canonical(const std::vector<Metric>& have,
                              const MetricDef* defs, std::size_t ndefs) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : have) by_name[m.name] = m;
  std::vector<Metric> out;
  for (std::size_t i = 0; i < ndefs; ++i) {
    auto it = by_name.find(defs[i].name);
    out.push_back(it != by_name.end() ? it->second
                                      : Metric{defs[i].name, 0.0, defs[i].unit, 0});
  }
  return out;
}

void print_stamp(const Args& a, const Outcome* o) {
  std::cout << "stamp {\"workload\":" << json_string(a.workload)
            << ",\"gc\":" << json_string(mgc::gc_name(workload_gc(a.workload)))
            << ",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
            << ",\"trace\":" << (a.trace ? 1 : 0)
            << ",\"nproc\":" << allowed_cpus()
            << ",\"build_type\":" << json_string(GCBENCH_BUILD_TYPE)
            << ",\"compiler\":" << json_string(GCBENCH_COMPILER)
            << ",\"git_sha\":" << json_string(a.git_sha)
            << ",\"fault\":" << json_string(a.fault);
  if (o != nullptr) {
    for (const auto& [k, v] : o->stamp) std::cout << ",\"" << k << "\":" << v;
  }
  std::cout << "}\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

void print_metric(const char* kind, const Metric& m) {
  std::cout << kind << " " << m.name << " " << json_number(m.value) << " "
            << m.unit << " n=" << m.samples << "\n";
}

// One metric per name: the median of the trials' values, with the trials'
// total sample count.
std::vector<Metric> fold_median(const std::map<std::string, std::vector<Metric>>& by_name) {
  std::vector<Metric> out;
  for (const auto& [name, ms] : by_name) {
    Metric m = ms.front();
    std::vector<double> values;
    m.samples = 0;
    for (const Metric& x : ms) {
      values.push_back(x.value);
      m.samples += x.samples;
    }
    m.value = median(values);
    out.push_back(m);
  }
  return out;
}

// Runs kTrials trials of the workload and folds them into one outcome:
// counts and problems add up; every metric is the median of the trials'
// values, so a host hiccup that spoils one or two trials does not move it.
Outcome run_trials(const Args& args, Progress& progress) {
  const mgc::GcKind gc = workload_gc(args.workload);
  const bool xalan = gc == mgc::GcKind::kParNew || gc == mgc::GcKind::kG1;
  std::vector<Outcome> trials;
  for (int k = 0; k < kTrials; ++k) {
    Trial t;
    t.index = k;
    t.seconds = static_cast<double>(args.seconds) / kTrials;
    std::uint64_t sm = args.seed * kTrials + static_cast<std::uint64_t>(k);
    t.seed = mgc::splitmix64(sm);
    trials.push_back(xalan ? run_xalan(args, t, gc, progress)
                           : run_ycsb(args, t, gc, progress));
    if (!trials.back().problems.empty()) break;
  }
  Outcome out;
  std::map<std::string, std::vector<Metric>> e2e, layer;
  for (const Outcome& t : trials) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.problems.insert(out.problems.end(), t.problems.begin(), t.problems.end());
    for (const Metric& m : end_to_end_metrics(t.samples)) e2e[m.name].push_back(m);
    for (const Metric& m : t.per_layer) layer[m.name].push_back(m);
    out.stamp = t.stamp;
  }
  out.end_to_end = fold_median(e2e);
  out.per_layer = fold_median(layer);
  out.stamp.emplace_back("trials", std::to_string(trials.size()));
  for (const Metric& m : out.per_layer) {
    if (m.name == "host.steal_share") {
      out.stamp.emplace_back("host_steal_share", json_number(m.value));
    }
  }
  return out;
}

// Runs the workload on its own thread and watches it. Returns the exit
// status; on an overrun it prints the report itself and never returns.
int run(const Args& args) {
  Progress progress;
  Outcome outcome;
  bool done = false;
  std::mutex mu;
  std::condition_variable cv;
  const std::int64_t t0 = mgc::now_ns();
  std::thread worker([&] {
    Outcome o;
    try {
      o = run_trials(args, progress);
    } catch (const std::exception& e) {
      o.problems.push_back(std::string("workload threw: ") + e.what());
    }
    std::lock_guard<std::mutex> g(mu);
    outcome = std::move(o);
    done = true;
    cv.notify_all();
  });

  // Watchdog: sample progress and the collector every 100 ms; remember
  // when each last moved so an overrun can name the stalled layer.
  std::uint64_t last_epoch = 0, last_completed = 0;
  std::int64_t epoch_moved = t0, progress_moved = t0;
  bool sp_requested = false, have_vm = false, stall_injected = false;
  {
    std::unique_lock<std::mutex> lk(mu);
    while (!done) {
      cv.wait_for(lk, std::chrono::milliseconds(100));
      if (done) break;
      const std::int64_t now = mgc::now_ns();
      std::uint64_t epoch = 0;
      have_vm = progress.sample_gc(&epoch, &sp_requested);
      if (have_vm && epoch != last_epoch) {
        last_epoch = epoch;
        epoch_moved = now;
      }
      const std::uint64_t completed = progress.completed.load();
      if (args.inject_stall && !stall_injected && completed > 0) {
        stall_injected = progress.inject_endless_pause();
      }
      if (completed != last_completed) {
        last_completed = completed;
        progress_moved = now;
      }
      const std::int64_t window_end = progress.window_end_ns.load();
      std::int64_t deadline = t0 + kProcessBudgetNs;
      if (window_end != 0) deadline = std::min(deadline, window_end + kAfterWindowNs);
      if (now < deadline) continue;

      // Overrun: every op not finished counts as failed.
      const std::uint64_t attempted = progress.attempted.load();
      const std::uint64_t failed = progress.failed.load() + (attempted - completed);
      const double gc_stall_s = mgc::ns_to_s(now - epoch_moved);
      const double op_stall_s = mgc::ns_to_s(now - progress_moved);
      std::cout << "stall layer="
                << (have_vm && sp_requested && gc_stall_s > 1.0
                        ? "gc (a pause never ended: gc_epoch frozen while a "
                          "safepoint is requested)"
                        : "request progress (no collection pending)")
                << " gc_epoch=" << last_epoch << " epoch_frozen_s=" << gc_stall_s
                << " no_progress_s=" << op_stall_s << " unfinished="
                << (attempted - completed) << "\n";
      print_stamp(args, nullptr);
      print_result(false, std::max<std::uint64_t>(attempted, 1),
                   std::max<std::uint64_t>(failed, 1), {});
      std::fflush(stdout);
      _exit(3);  // threads are stuck inside the program; do not join them
    }
  }
  worker.join();

  std::vector<std::string>& problems = outcome.problems;
  const std::vector<Metric> e2e =
      canonical(outcome.end_to_end, kEndToEnd, std::size(kEndToEnd));
  const std::vector<Metric> layer =
      canonical(outcome.per_layer, kPerLayer, std::size(kPerLayer));
  const double late_p99 = layer[metric_index(kPerLayer, "ycsb.late_p99_ms")].value;
  const double lat_p99 = e2e[metric_index(kEndToEnd, "lat_p99_ms")].value;
  if (late_p99 > kMaxLateShare * lat_p99) {
    problems.push_back("generator ran late: ycsb.late_p99_ms " + json_number(late_p99) +
                       " > " + json_number(kMaxLateShare) + " x lat_p99_ms " +
                       json_number(lat_p99));
  }
  std::vector<Metric> result_e2e;
  for (const char* name : kResultEndToEnd) {
    for (const Metric& m : e2e) {
      if (m.name == name) result_e2e.push_back(m);
    }
  }
  print_stamp(args, &outcome);
  const double attempted = static_cast<double>(outcome.attempted);
  print_metric("e2e", {"failed_share",
                       attempted == 0 ? 0.0 : static_cast<double>(outcome.failed) / attempted,
                       "share", outcome.attempted});
  for (const Metric& m : e2e) print_metric("e2e", m);
  if (args.trace) {
    for (const Metric& m : layer) print_metric("layer", m);
  }
  for (const std::string& p : problems) std::cout << "check FAILED: " << p << "\n";
  print_result(problems.empty(), std::max<std::uint64_t>(outcome.attempted, 1),
               outcome.failed, args.trace ? layer : result_e2e);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace gcbench

int main(int argc, char** argv) {
  gcbench::Args args;
  std::string err;
  if (!gcbench::parse_args(argc, argv, &args, &err)) return gcbench::usage(err.c_str());
  if (!args.fault.empty()) {
    mgc::fault::set_seed(args.seed);
    // Validate now; each timed window arms it (gcbench::WindowFaults).
    const bool ok = mgc::fault::parse_spec(args.fault, &err);
    mgc::fault::disarm_all();
    if (!ok) return gcbench::usage(("bad --fault spec: " + err).c_str());
  }
  return gcbench::run(args);
}
