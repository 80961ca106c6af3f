#include "gc/cms_gc.h"

#include <algorithm>

#include "runtime/vm.h"
#include "support/fault.h"

namespace mgc {
namespace {
constexpr std::size_t kSweepBatch = 256;
}  // namespace

CmsGc::CmsGc(Vm& vm, const VmConfig& cfg)
    : ClassicCollector(vm, cfg, /*free_list_old=*/true,
                       /*young_workers=*/cfg.effective_gc_threads(),
                       /*full_workers=*/1),
      cycle_(vm.safepoints(), vm.cost_counters(),
             [this] { maybe_inject_concurrent_failure(); }) {
  mod_union_.initialize(heap_.cards().num_cards());
}

void CmsGc::start_background() {
  cycle_.launch([this] { run_cycle(); });
}

void CmsGc::stop_background() { cycle_.stop(); }

void CmsGc::maybe_start_concurrent() {
  if (cycle_.active()) return;
  if (heap_.cms_old().occupancy() < cfg_.cms_trigger_occupancy) return;
  cycle_.request();
}

void CmsGc::fill_scavenge_hooks(ScavengeConfig& sc) {
  if (cycle_.active()) {
    sc.mod_union = &mod_union_;
    sc.allocate_black = true;
    sc.promoted_list = &promoted_;
  }
}

void CmsGc::before_full_compact() {
  // Inside a pause: abort any concurrent cycle; the compaction rebuilds the
  // free-list space and drops all cycle state.
  if (!cycle_.active()) return;
  cycle_.abort();
  if (heap_.cms_old().sweep_in_progress()) heap_.cms_old().abort_sweep();
  heap_.cms_old().set_allocate_black(false);
}

GcCause CmsGc::escalate_cause(GcCause cause) {
  if (cause == GcCause::kPromotionFailure && cycle_.active()) {
    cm_failures_.fetch_add(1, std::memory_order_acq_rel);
    return GcCause::kConcurrentModeFailure;
  }
  return cause;
}

void CmsGc::mark_old_target(Obj* t) {
  if (t != nullptr && heap_.in_old(t) && heap_.cms_bits().try_mark(t)) {
    cycle_.push(t);
  }
}

void CmsGc::scan_cell_refs(Obj* cell) {
  const std::size_t n = cell->num_refs();
  for (std::size_t i = 0; i < n; ++i) {
    mark_old_target(cell->refs()[i].load(std::memory_order_acquire));
  }
}

void CmsGc::mark_roots_and_young() {
  vm_.for_each_root_slot([&](Obj** slot) { mark_old_target(*slot); });
  auto scan_space = [&](ContiguousSpace& s) {
    s.walk([&](Obj* cell) {
      if (!cell->is_free_chunk()) scan_cell_refs(cell);
    });
  };
  scan_space(heap_.eden());
  scan_space(heap_.from_space());
  scan_space(heap_.to_space());
}

PauseOutcome CmsGc::do_initial_mark() {
  vm_.retire_all_tlabs();
  heap_.cms_bits().clear_all();
  mod_union_.clear();
  promoted_.clear();
  cycle_.begin();
  heap_.cms_old().set_allocate_black(true);
  mark_roots_and_young();

  PauseOutcome out;
  out.kind = PauseKind::kInitialMark;
  out.cause = GcCause::kOccupancyTrigger;
  return out;
}

void CmsGc::scan_card_for_marks(std::size_t card_idx) {
  for_each_slot_on_card(
      heap_.old_bot(), heap_.cards(), card_idx,
      [&](const char*) { return heap_.old_end(); },
      [&](Obj*, RefSlot& slot) {
        mark_old_target(slot.load(std::memory_order_acquire));
      });
}

bool CmsGc::concurrent_preclean() {
  // Word-wise sweep in blocks: the card table's visitor skips fully-clean
  // words with one 64-bit load, so mostly-clean old generations cost a
  // memory-bandwidth scan instead of one atomic byte load per card. Between
  // blocks we poll the safepoint and check for cycle aborts.
  constexpr std::size_t kBlockCards = 512;
  CardTable& cards = heap_.cards();
  const std::size_t first = cards.index_of(heap_.old_base());
  const std::size_t last = cards.index_of(heap_.old_end() - 1) + 1;
  for (std::size_t blk = first; blk < last; blk += kBlockCards) {
    if (!cycle_.checkpoint()) return false;
    const std::size_t blk_end = std::min(last, blk + kBlockCards);
    cards.visit_dirty(blk, blk_end, [&](std::size_t idx) {
      // visit_dirty also reports precleaned cards; only dirty ones can
      // win the preclean transition.
      if (cards.is_dirty(idx) && cards.try_preclean(idx)) {
        scan_card_for_marks(idx);
      }
    });
    // Keep the stack shallow while precleaning.
    cycle_.drain([this](Obj* o) { scan_cell_refs(o); }, 64);
  }
  return true;
}

PauseOutcome CmsGc::do_remark() {
  if (cycle_.aborted()) {
    // A concurrent mode failure compacted the old generation between the
    // remark request and this pause (the abort dropped the mark stack): the
    // promoted list holds pre-compaction addresses. Drop it; run_cycle
    // bails right after.
    promoted_.clear();
    PauseOutcome out;
    out.skipped = true;
    return out;
  }
  vm_.retire_all_tlabs();
  // 1. Roots and the whole young generation again.
  mark_roots_and_young();
  // 2. Objects promoted into the old generation during the cycle: they may
  //    hold the only reference to an unmarked old object.
  for (Obj* p : promoted_) scan_cell_refs(p);
  promoted_.clear();
  // 3. Cards dirtied by mutator stores during concurrent marking
  //    (incremental-update barrier), plus cards a young collection cleaned
  //    meanwhile (mod-union). Cards stay dirty for the generational
  //    barrier's purposes; remark only reads them.
  CardTable& cards = heap_.cards();
  const std::size_t first = cards.index_of(heap_.old_base());
  const std::size_t last = cards.index_of(heap_.old_end() - 1) + 1;
  // Precleaned cards were already scanned concurrently; only cards the
  // mutator re-dirtied since (or that a young GC folded into the mod-union
  // table) need a stop-the-world rescan. Both sweeps are word-wise; a card
  // present in both sets is scanned twice, which is harmless (marking is
  // idempotent) and rarer than the branch it would take to dedup.
  cards.visit_dirty(first, last, [&](std::size_t idx) {
    if (cards.is_dirty(idx)) scan_card_for_marks(idx);
  });
  mod_union_.for_each_set([&](std::size_t idx) {
    if (idx >= first && idx < last && !cards.is_dirty(idx)) {
      scan_card_for_marks(idx);
    }
  });
  mod_union_.clear();
  // 4. Complete the closure.
  cycle_.drain([this](Obj* o) { scan_cell_refs(o); });

  PauseOutcome out;
  out.kind = PauseKind::kRemark;
  out.cause = GcCause::kOccupancyTrigger;
  return out;
}

void CmsGc::maybe_inject_concurrent_failure() {
  if (!fault::should_fire(fault::Site::kCmsConcurrentFail)) return;
  vm_.run_vm_op(GcCause::kConcurrentModeFailure, /*caller_is_registered=*/true,
                [this]() -> PauseOutcome {
                  // The cycle may have been aborted by a real concurrent
                  // mode failure between the fire and this pause.
                  if (!cycle_.active()) {
                    PauseOutcome out;
                    out.skipped = true;
                    return out;
                  }
                  cm_failures_.fetch_add(1, std::memory_order_acq_rel);
                  // run_full -> before_full_compact aborts this cycle, so
                  // the concurrent caller bails at this checkpoint.
                  PauseOutcome out = run_full(GcCause::kConcurrentModeFailure);
                  out.failures.concurrent_mode_failures = 1;
                  return out;
                });
}

void CmsGc::run_cycle() {
  // Initial mark pause.
  vm_.run_vm_op(GcCause::kOccupancyTrigger, /*caller_is_registered=*/true,
                [this] { return do_initial_mark(); });

  // Concurrent mark: trace the old generation while mutators run.
  if (!cycle_.drain_concurrently([this](Obj* o) { scan_cell_refs(o); })) {
    return;
  }

  // Concurrent precleaning (two passes: the second catches most of the
  // cards dirtied during the first).
  for (int pass = 0; pass < 2; ++pass) {
    if (!concurrent_preclean()) return;
  }

  // Remark pause.
  vm_.run_vm_op(GcCause::kOccupancyTrigger, /*caller_is_registered=*/true,
                [this] { return do_remark(); });
  if (cycle_.aborted()) return;

  // Concurrent sweep.
  heap_.cms_old().begin_sweep();
  while (cycle_.checkpoint()) {
    std::size_t reclaimed = 0;
    if (!heap_.cms_old().sweep_step(kSweepBatch, &reclaimed)) {
      heap_.cms_old().end_sweep();
      heap_.cms_old().set_allocate_black(false);
      cycle_.finish();
      return;
    }
  }
  if (heap_.cms_old().sweep_in_progress()) heap_.cms_old().abort_sweep();
}

}  // namespace mgc
