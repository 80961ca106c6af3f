#include "gc/full_compact.h"

#include "gc/marking.h"
#include "runtime/vm.h"

namespace mgc {

FullCompactResult full_compact(const FullCompactConfig& cfg) {
  MGC_CHECK(cfg.vm != nullptr && cfg.heap != nullptr);
  Vm& vm = *cfg.vm;
  ClassicHeap& heap = *cfg.heap;
  vm.retire_all_tlabs();

  // Phase 1: mark (parallel for ParallelOld).
  const MarkStats marked = mark_from_roots(vm, cfg.pool, cfg.workers);

  // Phase 2 (serial): assign forwarding addresses in compaction order and
  // collect the live list. Sources: old generation first, then the young
  // spaces; destinations: old generation, then eden, then from-space.
  // Eden- and from-resident spill is re-evacuated by the next young
  // collection (the scavenge sources are exactly eden + from-space), so
  // both are legal overflow targets when a promotion-failure pile-up
  // pushes the live set past old+eden. Only to-space must stay empty — and
  // it always is outside a scavenge (the post-scavenge swap drains it), so
  // a live set exceeding old+eden+from cannot occur; the cursor's check
  // is a backstop for that impossible state, not a policy.
  //
  // Slide safety with the from-space range: old sources always fit in the
  // old range and eden sources in old+eden (live <= used per space), so
  // only from/to sources can be assigned from-space destinations — and
  // those are processed after every from-space source has itself been
  // assigned (and, in the slide, moved) in the same order.
  DestinationCursor dest;
  dest.add_range(heap.old_base(), heap.old_end());
  dest.add_range(heap.eden().base(), heap.eden().end());
  dest.add_range(heap.from_space().base(), heap.from_space().end());

  std::vector<Obj*> live;
  live.reserve(marked.live_objects);
  auto forward_cell = [&](Obj* o) { dest.forward(o, live); };
  heap.walk_old(forward_cell);
  heap.eden().walk(forward_cell);
  heap.from_space().walk(forward_cell);
  heap.to_space().walk(forward_cell);

  // Phases 3 and 4: update every reference to its forwarding address
  // (parallel for ParallelOld), then slide. Re-establish the generational
  // invariant for survivors that landed in the young spaces: old holders
  // referencing them need dirty cards.
  CardTable& cards = heap.cards();
  cards.clear_all();
  char* const yb = heap.young_base();
  char* const ye = heap.young_end();
  bool eden_overflow = false;
  update_refs_and_slide(vm, live, cfg.pool, cfg.workers, [&](Obj* d) {
    if (!heap.in_old(d->start())) {
      eden_overflow = true;
      return;
    }
    heap.old_bot().record_block(d->start(), d->end());
    const std::size_t n = d->num_refs();
    for (std::size_t r = 0; r < n; ++r) {
      Obj* t = d->ref(r);
      if (t != nullptr && t->start() >= yb && t->start() < ye) {
        cards.dirty(&d->refs()[r]);
      }
    }
  });

  // Phase 5: commit space boundaries.
  char* const old_top = dest.level(0);
  if (heap.free_list_old()) {
    heap.cms_old().reset_after_compact(old_top);
  } else {
    heap.old_space().set_top(old_top);
  }
  heap.eden().set_top(dest.level(1));
  heap.from_space().set_top(dest.level(2));
  heap.to_space().reset();

  FullCompactResult res;
  res.live_bytes = marked.live_bytes;
  res.live_objects = marked.live_objects;
  res.eden_overflow = eden_overflow;
  return res;
}

}  // namespace mgc
