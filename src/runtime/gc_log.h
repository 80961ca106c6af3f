// Structured GC event log — the reproduction's -verbose:gc. Every
// stop-the-world pause is recorded with wall-clock bounds, its kind, its
// cause, and heap occupancy, and every experiment reads its results from
// here (pause timelines, pause statistics, full-GC counts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/clock.h"
#include "support/mutex.h"

namespace mgc {

enum class PauseKind {
  kYoungGc,
  kFullGc,
  kInitialMark,  // CMS/G1 concurrent cycle start pause
  kRemark,       // CMS/G1 final marking pause
  kCleanup,      // G1 liveness accounting pause
  kMixedGc,      // G1 young + old evacuation
  kHeapExpand,   // allocation-ladder heap expansion (stop-the-world, no GC)
};

enum class GcCause {
  kAllocFailure,
  kSystemGc,
  kPromotionFailure,
  kConcurrentModeFailure,
  kEvacuationFailure,
  kOccupancyTrigger,
  kHumongousAllocation,
};

const char* pause_kind_name(PauseKind k);
const char* gc_cause_name(GcCause c);

// Per-phase breakdown of an evacuating pause (classic scavenge, G1 young,
// mixed and initial-mark pauses). Each time is the *critical path* of that
// phase: the maximum across the parallel GC workers, since the pause
// cannot end before its slowest worker. Zero for pauses that evacuate
// nothing (full GCs, remark, cleanup, ...).
struct GcPhaseBreakdown {
  std::int64_t root_scan_ns = 0;   // claiming + evacuating root slots
  std::int64_t card_scan_ns = 0;   // dirty-card (G1: remembered-set card) scan
  std::int64_t evac_drain_ns = 0;  // transitive copy via the work-stealing deques
  // Part of evac_drain_ns spent idle in offer-termination, waiting for
  // work or for the other workers to go idle (max across workers).
  std::int64_t termination_ns = 0;
  std::uint64_t steals = 0;  // successful steals, summed over the workers

  bool any() const {
    return (root_scan_ns | card_scan_ns | evac_drain_ns) != 0;
  }
};

// Degraded-mode transitions observed during a pause: promotion failure
// (classic collectors), concurrent-mode failure (CMS), evacuation failure
// (G1). All zero in healthy pauses; the paper's worst-case tails come from
// exactly these transitions, so they are first-class log data.
struct GcFailureCounters {
  std::uint32_t promotion_failures = 0;
  std::uint32_t concurrent_mode_failures = 0;
  std::uint32_t evacuation_failures = 0;

  bool any() const {
    return (promotion_failures | concurrent_mode_failures |
            evacuation_failures) != 0;
  }
};

struct PauseEvent {
  std::int64_t start_ns = 0;  // absolute, Clock epoch
  std::int64_t end_ns = 0;    // taken before the mutators are released
  PauseKind kind = PauseKind::kYoungGc;
  GcCause cause = GcCause::kAllocFailure;
  bool full = false;  // counts as a "full GC" in the paper's statistics
  std::size_t used_before = 0;
  std::size_t used_after = 0;
  GcPhaseBreakdown phases;  // young-pause breakdown (zeros otherwise)
  GcFailureCounters failures;  // degraded-mode transitions in this pause

  double duration_s() const { return ns_to_s(end_ns - start_ns); }
  double duration_ms() const { return ns_to_ms(end_ns - start_ns); }
};

struct PauseSummary {
  std::size_t pauses = 0;
  std::size_t full_pauses = 0;
  double total_s = 0.0;
  double avg_s = 0.0;
  double max_s = 0.0;
};

class GcLog {
 public:
  GcLog() : origin_ns_(now_ns()) {}

  // Time zero for relative timelines (VM start by default).
  void set_origin(std::int64_t ns) { origin_ns_ = ns; }
  std::int64_t origin_ns() const { return origin_ns_; }
  double to_relative_s(std::int64_t abs_ns) const {
    return ns_to_s(abs_ns - origin_ns_);
  }

  void add(const PauseEvent& e);
  std::vector<PauseEvent> snapshot() const;
  std::size_t count() const;
  PauseSummary summarize() const;

  // Sum of all pause durations, in ns — the stop-the-world channel of the
  // distilled GC cost accounting (see runtime/gc_cost.h).
  std::int64_t total_pause_ns() const;

  // True if any pause overlaps [start_ns, end_ns] (absolute). Used by the
  // client-side study to attribute latency spikes to collections.
  bool pause_overlaps(std::int64_t start_ns, std::int64_t end_ns) const;

  void clear();
  void set_verbose(bool v) { verbose_ = v; }

 private:
  mutable Mutex mu_{LockRank::kGcLog, "gc-log"};
  std::vector<PauseEvent> events_ MGC_GUARDED_BY(mu_);
  std::int64_t origin_ns_;
  bool verbose_ = false;
};

}  // namespace mgc
