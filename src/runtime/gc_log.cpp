#include "runtime/gc_log.h"

#include <algorithm>
#include <cstdio>

namespace mgc {

const char* pause_kind_name(PauseKind k) {
  switch (k) {
    case PauseKind::kYoungGc: return "YoungGC";
    case PauseKind::kFullGc: return "FullGC";
    case PauseKind::kInitialMark: return "InitialMark";
    case PauseKind::kRemark: return "Remark";
    case PauseKind::kCleanup: return "Cleanup";
    case PauseKind::kMixedGc: return "MixedGC";
    case PauseKind::kHeapExpand: return "ExpandHeap";
  }
  return "?";
}

const char* gc_cause_name(GcCause c) {
  switch (c) {
    case GcCause::kAllocFailure: return "Allocation Failure";
    case GcCause::kSystemGc: return "System.gc()";
    case GcCause::kPromotionFailure: return "Promotion Failure";
    case GcCause::kConcurrentModeFailure: return "Concurrent Mode Failure";
    case GcCause::kEvacuationFailure: return "Evacuation Failure";
    case GcCause::kOccupancyTrigger: return "Occupancy Trigger";
    case GcCause::kHumongousAllocation: return "Humongous Allocation";
  }
  return "?";
}

void GcLog::add(const PauseEvent& e) {
  {
    MutexLock g(mu_);
    events_.push_back(e);
  }
  if (verbose_) {
    std::fprintf(stderr, "[gc %8.3fs] %-11s (%s) %.3f ms, %zu->%zu KB",
                 to_relative_s(e.start_ns), pause_kind_name(e.kind),
                 gc_cause_name(e.cause), e.duration_ms(), e.used_before / 1024,
                 e.used_after / 1024);
    if (e.phases.any()) {
      std::fprintf(stderr,
                   " [roots %.0fus cards %.0fus evac %.0fus term %.0fus"
                   " steals %llu]",
                   static_cast<double>(e.phases.root_scan_ns) / 1e3,
                   static_cast<double>(e.phases.card_scan_ns) / 1e3,
                   static_cast<double>(e.phases.evac_drain_ns) / 1e3,
                   static_cast<double>(e.phases.termination_ns) / 1e3,
                   static_cast<unsigned long long>(e.phases.steals));
    }
    if (e.failures.any()) {
      std::fprintf(stderr, " [promo-fail %u cms-fail %u evac-fail %u]",
                   e.failures.promotion_failures,
                   e.failures.concurrent_mode_failures,
                   e.failures.evacuation_failures);
    }
    std::fputc('\n', stderr);
  }
}

std::vector<PauseEvent> GcLog::snapshot() const {
  MutexLock g(mu_);
  return events_;
}

std::size_t GcLog::count() const {
  MutexLock g(mu_);
  return events_.size();
}

PauseSummary GcLog::summarize() const {
  MutexLock g(mu_);
  PauseSummary s;
  for (const PauseEvent& e : events_) {
    ++s.pauses;
    if (e.full) ++s.full_pauses;
    const double d = e.duration_s();
    s.total_s += d;
    s.max_s = std::max(s.max_s, d);
  }
  if (s.pauses > 0) s.avg_s = s.total_s / static_cast<double>(s.pauses);
  return s;
}

std::int64_t GcLog::total_pause_ns() const {
  MutexLock g(mu_);
  std::int64_t total = 0;
  for (const PauseEvent& e : events_) total += e.end_ns - e.start_ns;
  return total;
}

bool GcLog::pause_overlaps(std::int64_t start_ns, std::int64_t end_ns) const {
  MutexLock g(mu_);
  for (const PauseEvent& e : events_) {
    if (e.start_ns <= end_ns && e.end_ns >= start_ns) return true;
  }
  return false;
}

void GcLog::clear() {
  MutexLock g(mu_);
  events_.clear();
}

}  // namespace mgc
