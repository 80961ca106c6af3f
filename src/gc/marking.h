// The LISP-2 steps shared by the full collections (the classic heap's
// full_compact and G1's full GC): stop-the-world tracing with header mark
// bits, and, once the collector has assigned forwarding addresses, the
// reference update and the slide. Parallel when given a worker pool,
// serial otherwise.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "heap/object.h"
#include "heap/poison.h"
#include "support/gc_worker_pool.h"

namespace mgc {

class Vm;

struct MarkStats {
  std::size_t live_objects = 0;
  std::size_t live_bytes = 0;
};

// Marks every object reachable from the VM's roots (mutator shadow stacks +
// global roots) by setting header mark bits. Must run inside a safepoint.
// `pool` may be nullptr together with workers == 1 for serial marking.
MarkStats mark_from_roots(Vm& vm, GcWorkerPool* pool, int workers);

// Step 2's destination: a bump allocator over an ordered list of ranges.
// Forwarding addresses are handed out in the order the slide will move the
// objects, so a destination never overtakes its source.
class DestinationCursor {
 public:
  // The slide writes through the raw range, bypassing the space allocator
  // (past its top, through poisoned free memory), so the range is
  // re-admitted wholesale; the caller re-zaps whatever ends up dead.
  void add_range(char* base, char* end) {
    poison::unpoison(base, static_cast<std::size_t>(end - base));
    ranges_.push_back({base, end});
  }

  char* alloc(std::size_t bytes) {
    while (cur_ < ranges_.size()) {
      Range& r = ranges_[cur_];
      if (static_cast<std::size_t>(r.end - r.pos()) >= bytes) {
        char* p = r.pos();
        r.used += bytes;
        return p;
      }
      ++cur_;
    }
    return nullptr;
  }

  // Step 2 for one cell: a marked cell is forwarded to the next
  // destination and appended to `live`.
  void forward(Obj* cell, std::vector<Obj*>& live) {
    if (!cell->is_marked()) return;
    char* d = alloc(cell->size_bytes());
    MGC_CHECK_MSG(d != nullptr,
                  "full GC: live data exceeds the compaction destinations");
    cell->set_forward(reinterpret_cast<Obj*>(d));
    live.push_back(cell);
  }

  // Final fill level of range i (== base when untouched).
  char* level(std::size_t i) const {
    return ranges_[i].base + ranges_[i].used;
  }

 private:
  struct Range {
    char* base;
    char* end;
    std::size_t used = 0;
    char* pos() const { return base + used; }
  };
  std::vector<Range> ranges_;
  std::size_t cur_ = 0;
};

// Step 3: points every root slot and every reference of the objects in
// `live` at its target's forwardee. Workers claim chunks of the roots, then
// of `live`.
void update_refs_to_forwardees(Vm& vm, const std::vector<Obj*>& live,
                               GcWorkerPool* pool, int workers);

// Steps 3 and 4. `live` holds every marked object in the order its
// forwarding address was assigned, each forwarded to its destination
// (pinned objects to themselves). After the reference update the objects
// slide, serially, in that same order, so every destination byte was
// already vacated or lies below its own source. Each object, at its
// destination with mark and forwarding cleared, goes to on_moved(dest) and
// replaces its entry in `live`.
template <typename OnMoved>
void update_refs_and_slide(Vm& vm, std::vector<Obj*>& live,
                           GcWorkerPool* pool, int workers, OnMoved on_moved) {
  update_refs_to_forwardees(vm, live, pool, workers);
  for (Obj*& o : live) {
    Obj* const d = o->forwardee();
    if (d != o) std::memmove(d->start(), o->start(), o->size_bytes());
    d->header().forward.store(nullptr, std::memory_order_relaxed);
    d->clear_mark();
    on_moved(d);
    o = d;
  }
}

}  // namespace mgc
