#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "runtime/vm.h"
#include "support/clock.h"
#include "support/fault.h"
#include "support/units.h"

namespace gcbench {
namespace {

CpuTimes read_cpu_times() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line)) return t;
  std::istringstream in(line);
  std::string label;
  in >> label;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

std::int64_t involuntary_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

}  // namespace

bool Progress::sample_gc(std::uint64_t* epoch, bool* safepoint_requested) {
  std::lock_guard<std::mutex> g(mu_);
  if (vm_ == nullptr) return false;
  *epoch = vm_->gc_epoch();
  *safepoint_requested = vm_->safepoints().is_requested();
  return true;
}

bool Progress::inject_endless_pause() {
  std::lock_guard<std::mutex> g(mu_);
  if (vm_ == nullptr) return false;
  mgc::Vm* vm = vm_;
  // Never joined: the watchdog ends the process with _exit once the
  // deadline passes, and the thread must outlive every destructor.
  new std::thread([vm] {
    vm->run_vm_op(mgc::GcCause::kSystemGc, /*caller_is_registered=*/false,
                  []() -> mgc::PauseOutcome {
                    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
                  });
  });
  return true;
}

WindowFaults::WindowFaults(const std::string& spec)
    : armed_(!spec.empty() && mgc::fault::parse_spec(spec)) {}

WindowFaults::~WindowFaults() {
  if (armed_) mgc::fault::disarm_all();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin_ns) {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
      << s.name << "\",\"start_us\":" << (s.start_ns - origin_ns) / 1000
      << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000.0 << "}\n";
  }
  return static_cast<bool>(f);
}

std::vector<mgc::PauseEvent> pauses_in(const std::vector<mgc::PauseEvent>& all,
                                       std::int64_t begin_ns,
                                       std::int64_t end_ns) {
  std::vector<mgc::PauseEvent> out;
  for (const mgc::PauseEvent& e : all) {
    if (e.start_ns >= begin_ns && e.start_ns < end_ns) out.push_back(e);
  }
  return out;
}

std::int64_t pause_overlap_ns(const std::vector<mgc::PauseEvent>& pauses,
                              std::int64_t begin_ns, std::int64_t end_ns) {
  std::int64_t sum = 0;
  for (const mgc::PauseEvent& e : pauses) {
    const std::int64_t lo = std::max(begin_ns, e.start_ns);
    const std::int64_t hi = std::min(end_ns, e.end_ns);
    if (hi > lo) sum += hi - lo;
  }
  return sum;
}

void add_gc_layer_metrics(const std::vector<mgc::PauseEvent>& window,
                          const mgc::GcCostSnapshot& cost0,
                          const mgc::GcCostSnapshot& cost1,
                          std::uint64_t allocated_bytes, double window_s,
                          std::size_t heap_bytes, std::vector<Metric>* out) {
  std::vector<double> young_ms, roots_us, cards_us, evac_us, full_occupancy;
  double pause_ns = 0, young_ns = 0, young_phase_ns = 0, reclaimed = 0;
  std::size_t full = 0, degraded = 0;
  for (const mgc::PauseEvent& e : window) {
    const double d = static_cast<double>(e.end_ns - e.start_ns);
    pause_ns += d;
    if (e.used_before > e.used_after) {
      reclaimed += static_cast<double>(e.used_before - e.used_after);
    }
    if (e.failures.any()) ++degraded;
    if (e.full) {
      ++full;
      full_occupancy.push_back(static_cast<double>(e.used_after) /
                               static_cast<double>(heap_bytes));
    }
    if (e.kind == mgc::PauseKind::kYoungGc) {
      young_ms.push_back(d / 1e6);
      young_ns += d;
      young_phase_ns += static_cast<double>(e.phases.root_scan_ns +
                                            e.phases.card_scan_ns +
                                            e.phases.evac_drain_ns);
      roots_us.push_back(static_cast<double>(e.phases.root_scan_ns) / 1e3);
      cards_us.push_back(static_cast<double>(e.phases.card_scan_ns) / 1e3);
      evac_us.push_back(static_cast<double>(e.phases.evac_drain_ns) / 1e3);
    }
  }
  const std::size_t n = window.size();
  const std::size_t ny = young_ms.size();
  const double mib = static_cast<double>(mgc::MiB);
  auto add = [out](const char* name, double v, const char* unit,
                   std::size_t samples) {
    out->push_back({name, v, unit, samples});
  };
  add("runtime.alloc_slow_ms",
      static_cast<double>(cost1.alloc_slow_ns - cost0.alloc_slow_ns) / 1e6,
      "ms", cost1.alloc_slow_calls - cost0.alloc_slow_calls);
  add("runtime.alloc_mb_per_s",
      static_cast<double>(allocated_bytes) / mib / window_s, "MiB/s", 1);
  add("runtime.barrier_ops",
      static_cast<double>(cost1.barrier_ops() - cost0.barrier_ops()), "count",
      1);
  add("runtime.pause_unattributed_share",
      young_ns > 0 ? 1.0 - young_phase_ns / young_ns : 0.0, "share", ny);
  add("gc.young_pause_p50_ms", quantile(young_ms, 0.50), "ms", ny);
  add("gc.young_pause_p99_ms", quantile(young_ms, 0.99), "ms", ny);
  add("gc.full_pauses", static_cast<double>(full), "count", n);
  add("gc.degraded_pauses", static_cast<double>(degraded), "count", n);
  add("gc.root_scan_us_p50", quantile(roots_us, 0.5), "us", ny);
  add("gc.card_scan_us_p50", quantile(cards_us, 0.5), "us", ny);
  add("gc.evac_drain_us_p50", quantile(evac_us, 0.5), "us", ny);
  add("gc.pause_share", pause_ns / 1e9 / window_s, "share", n);
  add("gc.concurrent_cpu_s",
      static_cast<double>(cost1.concurrent_ns - cost0.concurrent_ns) / 1e9, "s",
      cost1.concurrent_cycles - cost0.concurrent_cycles);
  add("gc.concurrent_cycles",
      static_cast<double>(cost1.concurrent_cycles - cost0.concurrent_cycles),
      "count", 1);
  add("gc.reclaimed_mb_per_pause_ms",
      pause_ns > 0 ? reclaimed / mib / (pause_ns / 1e6) : 0.0, "MiB/ms", n);
  add("heap.used_after_full_share", median(full_occupancy), "share", full);
}

HostWindow::HostWindow()
    : cpu0_(read_cpu_times()),
      nivcsw0_(involuntary_ctx_switches()),
      proc_cpu0_(mgc::process_cpu_ns()) {}

void HostWindow::finish(std::vector<Metric>* out) const {
  const double steal = steal_share(cpu0_, read_cpu_times());
  out->push_back({"host.cores",
                  static_cast<double>(std::thread::hardware_concurrency()),
                  "count", 1});
  out->push_back({"host.steal_share", steal, "share", 1});
  out->push_back({"host.involuntary_ctx_switches",
                  static_cast<double>(involuntary_ctx_switches() - nivcsw0_),
                  "count", 1});
  out->push_back({"process.cpu_s",
                  mgc::ns_to_s(mgc::process_cpu_ns() - proc_cpu0_), "s", 1});
}

bool known_workload(const std::string& name) {
  return name == "xalan-parnew" || name == "xalan-g1" ||
         name == "ycsb-parallelold" || name == "ycsb-cms";
}

}  // namespace gcbench
