// ConcurrentMarkSweepGC: ParNew young collection over a free-list old
// generation collected by a mostly-concurrent background cycle:
//
//   initial mark (STW)  — roots + young generation scanned for old targets
//   concurrent mark     — background thread traces the old generation;
//                         mutator stores dirty cards (incremental update)
//   remark (STW)        — roots, young gen, objects promoted during the
//                         cycle, and dirty/mod-union cards are rescanned;
//                         the closure is completed
//   concurrent sweep    — free lists rebuilt in address order
//
// A promotion failure while the cycle runs is a *concurrent mode failure*:
// the cycle aborts and a single-threaded mark-sweep-compact runs in the
// same pause (the long CMS pauses of the paper's Cassandra experiment).
#pragma once

#include <vector>

#include "gc/classic_collector.h"
#include "gc/concurrent_cycle.h"

namespace mgc {

class CmsGc final : public ClassicCollector {
 public:
  CmsGc(Vm& vm, const VmConfig& cfg);

  GcKind kind() const override { return GcKind::kCms; }

  void start_background() override;
  void stop_background() override;
  void maybe_start_concurrent() override;

  bool cycle_active() const { return cycle_.active(); }
  std::uint64_t cycles_completed() const { return cycle_.completed(); }
  std::uint64_t concurrent_mode_failures() const {
    return cm_failures_.load(std::memory_order_acquire);
  }

 protected:
  void fill_scavenge_hooks(ScavengeConfig& sc) override;
  void before_full_compact() override;
  int full_compact_workers() const override { return 1; }  // serial MSC
  GcCause escalate_cause(GcCause cause) override;

 private:
  void run_cycle();
  // kCmsConcurrentFail fault site: when armed and fired, runs the serial
  // mark-sweep-compact in a pause exactly as a mid-cycle promotion failure
  // would, aborting the concurrent cycle. The cycle's checkpoint hook, so
  // checked between batches of every concurrent phase (mark, preclean,
  // sweep).
  void maybe_inject_concurrent_failure();

  // Pause bodies (run on the VM thread).
  PauseOutcome do_initial_mark();
  PauseOutcome do_remark();

  // Pushes t onto the mark stack if it is an unmarked old-gen object.
  void mark_old_target(Obj* t);
  void scan_cell_refs(Obj* cell);
  // Marks the old-gen targets of the roots and of every young cell.
  void mark_roots_and_young();
  // Marks the old-gen targets of every reference slot on one card.
  void scan_card_for_marks(std::size_t card_idx);
  // Concurrent precleaning: scans dirty cards while mutators run so remark
  // only has to revisit cards re-dirtied afterwards (HotSpot's
  // CMSPrecleaningEnabled). Returns false if the cycle was aborted.
  bool concurrent_preclean();

  ConcurrentCycle cycle_;
  ModUnionTable mod_union_;
  std::vector<Obj*> promoted_;

  std::atomic<std::uint64_t> cm_failures_{0};
};

}  // namespace mgc
