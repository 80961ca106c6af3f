// Shared types of the gcbench binary: run arguments, the progress counters
// the watchdog samples, metric records, and the helpers every workload
// uses to turn the GcLog window, the cost accounting and the recorded
// spans into end-to-end and per-layer metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/gc_cost.h"
#include "runtime/gc_kind.h"
#include "runtime/gc_log.h"

namespace mgc {
class Vm;
}

namespace gcbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string fault;      // fault spec armed before the run (self-test)
  bool inject_stall = false;  // start a pause that never ends (self-test)
  std::string trace_dir;  // where the traced run writes its spans
  std::string git_sha = "unknown";
};

// One of the independent trials a run is split into: a fresh set-up
// followed by a timed window of `seconds`. Each metric of a run is the
// median of its trials' values.
struct Trial {
  int index = 0;
  double seconds = 0.0;
  std::uint64_t seed = 0;  // derived from the run's seed and the index
};

// Where a traced trial writes its spans.
inline std::string trace_path(const Args& a, const Trial& t) {
  return a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
         "-trial" + std::to_string(t.index) + ".jsonl";
}

// One measured number. `samples` is how many observations it summarizes
// (1 for a count or a single timing).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Raw end-to-end observations of one trial; main() derives the trial's
// end-to-end metrics from them.
struct EndToEndSamples {
  std::vector<double> setup_s;   // set-up to first timed op
  std::vector<double> iter_ms;   // one timed iteration (see NOTES.md)
  std::vector<double> pause_ms;  // stop-the-world pauses in the window
  std::vector<double> lat_ms;    // client-visible latency (see NOTES.md)
  std::uint64_t slo_met = 0;     // latencies within the SLO
  std::uint64_t slo_total = 0;   // latencies judged against it
};

// Everything a workload trial hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  EndToEndSamples samples;          // filled by a trial
  std::vector<Metric> end_to_end;   // filled by main() from the trials
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> stamp;  // extra fields
};

// Counters the watchdog reads while a workload runs. A workload publishes
// its Vm for the duration of the run so a stall can be attributed to a
// pause that never ends (gc_epoch frozen while a safepoint is requested).
class Progress {
 public:
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::int64_t> window_end_ns{0};  // 0 until the window opens

  void publish_vm(mgc::Vm* vm) {
    std::lock_guard<std::mutex> g(mu_);
    vm_ = vm;
  }
  // Samples gc_epoch and the safepoint request flag of the published Vm.
  // False when no Vm is published.
  bool sample_gc(std::uint64_t* epoch, bool* safepoint_requested);

  // Self-test of the hang capture: asks the published Vm for a
  // stop-the-world operation that never returns, the shape of a collector
  // spinning inside a pause. Only a deadline overrun ends the process
  // afterwards. False when no Vm is published.
  bool inject_endless_pause();

 private:
  std::mutex mu_;
  mgc::Vm* vm_ = nullptr;
};

// Arms the run's --fault spec for the lifetime of one timed window, so the
// set-up (the load phase) and the correctness checks run fault-free.
class WindowFaults {
 public:
  explicit WindowFaults(const std::string& spec);
  ~WindowFaults();
  WindowFaults(const WindowFaults&) = delete;
  WindowFaults& operator=(const WindowFaults&) = delete;

 private:
  bool armed_ = false;
};

// --- statistics -------------------------------------------------------------

// Nearest-rank quantile of `v` (sorted in place). 0 for an empty vector.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// --- spans ------------------------------------------------------------------

// A traced run alternates untraced and traced slices of this length over
// its timed window, so drift across the window cancels out of the
// tracing overhead (traced median over untraced median).
constexpr std::int64_t kTraceSliceNs = 250'000'000;
inline bool in_traced_slice(bool trace, std::int64_t start_ns, std::int64_t t_ns) {
  return trace && ((t_ns - start_ns) / kTraceSliceNs) % 2 == 1;
}

// A closed interval at one layer boundary; `parent` is the id of the span
// that caused it (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Writes spans as JSON lines, times relative to `origin_ns`. Returns false
// if the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin_ns);

// --- GC window metrics ----------------------------------------------------------

// The pauses of a GcLog snapshot that started inside [begin_ns, end_ns).
std::vector<mgc::PauseEvent> pauses_in(const std::vector<mgc::PauseEvent>& all,
                                       std::int64_t begin_ns,
                                       std::int64_t end_ns);

// Sum of the parts of `pauses` that overlap [begin_ns, end_ns).
std::int64_t pause_overlap_ns(const std::vector<mgc::PauseEvent>& pauses,
                              std::int64_t begin_ns, std::int64_t end_ns);

// Appends the runtime.*, gc.* and heap.* per-layer metrics for the pauses
// and cost delta of one timed window.
void add_gc_layer_metrics(const std::vector<mgc::PauseEvent>& window,
                          const mgc::GcCostSnapshot& cost0,
                          const mgc::GcCostSnapshot& cost1,
                          std::uint64_t allocated_bytes, double window_s,
                          std::size_t heap_bytes, std::vector<Metric>* out);

// --- host ---------------------------------------------------------------------

// Cumulative /proc/stat CPU jiffies: steal and total.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

// Host counters over one timed window, taken by a HostWindow at its start
// and folded into host.* / process.* metrics at its end.
class HostWindow {
 public:
  HostWindow();
  void finish(std::vector<Metric>* out) const;

 private:
  CpuTimes cpu0_;
  std::int64_t nivcsw0_;
  std::int64_t proc_cpu0_;
};

// --- workloads ----------------------------------------------------------------

// True for the workload names gcbench knows.
bool known_workload(const std::string& name);
Outcome run_xalan(const Args& args, const Trial& trial, mgc::GcKind gc,
                  Progress& progress);
Outcome run_ycsb(const Args& args, const Trial& trial, mgc::GcKind gc,
                 Progress& progress);

}  // namespace gcbench
