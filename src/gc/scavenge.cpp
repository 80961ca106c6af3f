#include "gc/scavenge.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "gc/parallel_work.h"
#include "gc/plab.h"
#include "heap/poison.h"
#include "runtime/vm.h"
#include "support/clock.h"
#include "support/fault.h"

namespace mgc {
namespace {

// Cards per claimed strip: 256 cards = 128 KiB of old generation per
// claim. Word-wise sweeping makes a fully clean strip cost 32 loads, so
// strips are cheap enough to keep the claim counter cold while still
// load-balancing the dirty clusters.
constexpr std::size_t kCardsPerStrip = 256;
constexpr std::size_t kRootsPerChunk = 64;

struct Shared {
  const ScavengeConfig& cfg;
  ClassicHeap& heap;
  WorkSet<Obj*> work;
  // Root slots stay where they live (mutator shadow stacks + global
  // roots); workers claim chunks of the flattened index space
  // [0, root_count) and map them back through the prefix sums. No per-slot
  // vector is built on the VM thread.
  std::vector<std::vector<Obj*>*> root_vecs;
  std::vector<std::size_t> root_prefix;  // root_vecs.size() + 1 entries
  std::size_t root_count = 0;
  // Old-generation card window [first_card, last_card), claimed in strips.
  std::size_t first_card = 0;
  std::size_t last_card = 0;
  char* old_parsable_limit = nullptr;
  std::atomic<bool> promotion_failed{false};
  std::atomic<std::size_t> survivor_bytes{0};
  std::atomic<std::size_t> promoted_bytes{0};
  std::atomic<std::size_t> cards_scanned{0};
  std::atomic<std::int64_t> root_scan_ns{0};
  std::atomic<std::int64_t> card_scan_ns{0};
  std::atomic<std::int64_t> evac_drain_ns{0};
  SpinLock promoted_lock{LockRank::kPromotedList, "promoted-list"};

  explicit Shared(const ScavengeConfig& c)
      : cfg(c), heap(*c.heap), work(c.workers) {}

  bool in_source(const Obj* o) const {
    // Objects being evacuated live in eden or the from-survivor space.
    return heap.eden().contains(o) || heap.from_space().contains(o);
  }
};

struct Worker {
  Worker(std::size_t plab_bytes, ClassicHeap& heap)
      : to_plab(plab_bytes),
        old_plab(plab_bytes, &heap.old_bot(),
                 /*parsable=*/heap.free_list_old()) {}
  Plab to_plab;
  Plab old_plab;
  std::size_t survivor_bytes = 0;
  std::size_t promoted_bytes = 0;
  std::vector<Obj*> promoted;  // flushed into cfg.promoted_list at the end
};

Obj* evacuate(Shared& sh, Worker& wk, int w, Obj* o) {
  if (!sh.in_source(o)) return o;
  if (Obj* f = o->forwardee()) return f;

  const std::size_t bytes = o->size_bytes();
  bool promoted = false;
  char* const dest_mem = alloc_copy_dest(
      bytes, o->age() >= sh.cfg.tenuring_threshold,
      fault::Site::kPromotionFail, wk.to_plab, wk.old_plab,
      [&](bool old, std::size_t b) {
        return old ? sh.heap.old_alloc(b) : sh.heap.to_space().par_alloc(b);
      },
      &promoted);
  if (dest_mem == nullptr) {
    // Promotion failure: self-forward in place; the caller must run a full
    // collection in this same pause.
    Obj* winner = o->forward_atomic(o);
    if (winner == o) {
      sh.promotion_failed.store(true, std::memory_order_release);
      sh.work.push(w, o);  // children still need processing
    }
    return winner;
  }

  Obj* const dest = copy_and_forward(o, dest_mem, bytes, [](Obj*) {});
  if (dest != reinterpret_cast<Obj*>(dest_mem)) return dest;  // lost the race

  if (promoted) {
    sh.heap.old_bot().record_block(dest->start(), dest->end());
    if (sh.cfg.allocate_black) sh.heap.cms_bits().mark(dest);
    if (sh.cfg.promoted_list != nullptr) wk.promoted.push_back(dest);
    wk.promoted_bytes += bytes;
  } else {
    wk.survivor_bytes += bytes;
  }
  sh.work.push(w, dest);
  return dest;
}

// Processes one reference slot of a holder that lives in the old generation
// iff `x_in_old`.
inline void process_slot(Shared& sh, Worker& wk, int w, bool x_in_old,
                         RefSlot& slot) {
  Obj* t = slot.load(std::memory_order_relaxed);
  if (t == nullptr) return;
  if (sh.in_source(t)) {
    t = evacuate(sh, wk, w, t);
    slot.store(t, std::memory_order_relaxed);
  }
  // Maintain the generational invariant: any old-gen slot that (still)
  // points into the young generation keeps its card dirty.
  if (x_in_old && sh.heap.in_young(t)) sh.heap.cards().dirty(&slot);
}

void scan_object(Shared& sh, Worker& wk, int w, Obj* x) {
  const bool x_in_old = sh.heap.in_old(x);
  const std::size_t n = x->num_refs();
  for (std::size_t i = 0; i < n; ++i) {
    process_slot(sh, wk, w, x_in_old, x->refs()[i]);
  }
}

// A card is cleared by the worker that scans it, while other workers may
// promote onto it and dirty it for the promoted object's old->young slots.
// Were the clear to land after such a dirty, the mark would be lost. Two
// rules keep that from happening:
//  * Contiguous old generation: the scanned window ends at the pre-pause
//    top, which pad_old_top_to_card() moved to a card boundary, so no
//    promotion lands on a scanned card at all.
//  * CMS free-list old generation: promotion does land on scanned cards,
//    but the scanning walk runs to the card end over every cell, promoted
//    ones included. The fence orders this worker's clear before its walk:
//    either the walk sees the promoted object (the copy protocol shows it
//    as a 0-ref cell or fully copied) and re-dirties the card for its young
//    slots itself, or the promoting worker's writes, and so its dirty,
//    come after the clear.
void process_card(Shared& sh, Worker& wk, int w, std::size_t card_idx) {
  CardTable& cards = sh.heap.cards();
  if (sh.cfg.mod_union != nullptr) sh.cfg.mod_union->record(card_idx);
  cards.clear_index(card_idx);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for_each_slot_on_card(
      sh.heap.old_bot(), cards, card_idx,
      [&](const char*) { return sh.old_parsable_limit; },
      [&](Obj*, RefSlot& slot) {
        process_slot(sh, wk, w, /*x_in_old=*/true, slot);
      });
}

// Evacuates the root slots in the flattened index range [b, e).
void scan_root_chunk(Shared& sh, Worker& wk, int w, std::size_t b,
                     std::size_t e) {
  // Locate the vector containing flat index b, then walk forward.
  std::size_t v = static_cast<std::size_t>(
                      std::upper_bound(sh.root_prefix.begin(),
                                       sh.root_prefix.end(), b) -
                      sh.root_prefix.begin()) -
                  1;
  while (b < e) {
    const std::size_t span_end = std::min(e, sh.root_prefix[v + 1]);
    std::vector<Obj*>& vec = *sh.root_vecs[v];
    for (std::size_t i = b; i < span_end; ++i) {
      Obj*& slot = vec[i - sh.root_prefix[v]];
      if (slot != nullptr && sh.in_source(slot)) {
        slot = evacuate(sh, wk, w, slot);
      }
    }
    b = span_end;
    ++v;
  }
}

// Fills the old generation from its top to the next card boundary (or to
// its end, if that comes first) with a filler, so the card holding the
// pre-pause top is not both scanned and promoted into; see process_card.
void pad_old_top_to_card(ClassicHeap& heap) {
  CardTable& cards = heap.cards();
  char* const top = heap.old_space().top();
  const std::size_t idx = cards.index_of(top);
  if (cards.card_base(idx) == top) return;
  const std::size_t gap = std::min(
      static_cast<std::size_t>(cards.card_end(idx) - top),
      heap.old_space().free_bytes());
  if (gap == 0) return;
  char* const p = heap.old_alloc(gap);
  MGC_CHECK(p == top);
  Obj::init_filler(p, gap / kWordSize);
  // Dead memory, like a retired PLAB tail: only the header stays readable.
  poison::zap_and_poison(p + sizeof(ObjHeader), gap - sizeof(ObjHeader),
                         poison::kLabTailZap);
}

}  // namespace

ScavengeResult scavenge(const ScavengeConfig& cfg) {
  MGC_CHECK(cfg.vm != nullptr && cfg.heap != nullptr);

  Vm& vm = *cfg.vm;
  ClassicHeap& heap = *cfg.heap;
  vm.retire_all_tlabs();

  if (!heap.free_list_old()) pad_old_top_to_card(heap);
  Shared sh(cfg);
  sh.old_parsable_limit =
      heap.free_list_old() ? heap.old_end() : heap.old_space().top();

  // O(#mutators) setup: gather the root *vectors* and their prefix sums.
  // The slots themselves are claimed and scanned inside worker_body.
  sh.root_vecs = vm.root_vectors();
  sh.root_prefix.resize(sh.root_vecs.size() + 1, 0);
  for (std::size_t i = 0; i < sh.root_vecs.size(); ++i) {
    sh.root_prefix[i + 1] = sh.root_prefix[i] + sh.root_vecs[i]->size();
  }
  sh.root_count = sh.root_prefix.back();

  CardTable& cards = heap.cards();
  sh.first_card = cards.index_of(heap.old_base());
  sh.last_card = sh.old_parsable_limit > heap.old_base()
                     ? cards.index_of(sh.old_parsable_limit - 1) + 1
                     : sh.first_card;

  ChunkClaimer root_claimer(sh.root_count, kRootsPerChunk);
  ChunkClaimer strip_claimer(sh.last_card - sh.first_card, kCardsPerStrip);

  auto worker_body = [&](int w) {
    // Simulated slow worker: the pause's critical path is its slowest
    // worker, so a stall here stretches the pause without touching any
    // heap state (the fingerprint stays deterministic).
    if (fault::should_fire(fault::Site::kGcWorkerStall)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // The free-list old generation uses parsable PLABs: concurrent card
    // scanners may walk the space while promotion carves it up, so the
    // PLAB keeps its unused tail covered by a filler at every step.
    Worker wk(cfg.plab_bytes, heap);
    const std::int64_t t0 = now_ns();
    std::size_t b, e;
    while (root_claimer.claim(&b, &e)) {
      scan_root_chunk(sh, wk, w, b, e);
    }
    const std::int64_t t1 = now_ns();
    // Striped dirty-card discovery: each claimed strip is swept word-wise
    // and its dirty cards processed in place by this worker.
    std::size_t scanned = 0;
    while (strip_claimer.claim(&b, &e)) {
      cards.visit_dirty(sh.first_card + b, sh.first_card + e,
                        [&](std::size_t idx) {
                          process_card(sh, wk, w, idx);
                          ++scanned;
                        });
    }
    const std::int64_t t2 = now_ns();
    sh.work.drain(w, [&](Obj* o) { scan_object(sh, wk, w, o); });
    wk.to_plab.retire();
    wk.old_plab.retire();
    const std::int64_t t3 = now_ns();
    sh.cards_scanned.fetch_add(scanned, std::memory_order_relaxed);
    sh.survivor_bytes.fetch_add(wk.survivor_bytes, std::memory_order_relaxed);
    sh.promoted_bytes.fetch_add(wk.promoted_bytes, std::memory_order_relaxed);
    if (cfg.promoted_list != nullptr && !wk.promoted.empty()) {
      SpinLockGuard g(sh.promoted_lock);
      cfg.promoted_list->insert(cfg.promoted_list->end(), wk.promoted.begin(),
                                wk.promoted.end());
    }
    fold_max(sh.root_scan_ns, t1 - t0);
    fold_max(sh.card_scan_ns, t2 - t1);
    fold_max(sh.evac_drain_ns, t3 - t2);
  };

  run_workers(cfg.pool, cfg.workers, worker_body);

  ScavengeResult res;
  res.promotion_failed = sh.promotion_failed.load(std::memory_order_acquire);
  res.survivor_bytes = sh.survivor_bytes.load(std::memory_order_relaxed);
  res.promoted_bytes = sh.promoted_bytes.load(std::memory_order_relaxed);
  res.dirty_cards_scanned = sh.cards_scanned.load(std::memory_order_relaxed);
  res.phases.root_scan_ns = sh.root_scan_ns.load(std::memory_order_relaxed);
  res.phases.card_scan_ns = sh.card_scan_ns.load(std::memory_order_relaxed);
  res.phases.evac_drain_ns = sh.evac_drain_ns.load(std::memory_order_relaxed);
  res.phases.termination_ns = sh.work.max_termination_ns();
  res.phases.steals = sh.work.steals();

  if (!res.promotion_failed) {
    heap.eden().reset();
    heap.from_space().reset();
    heap.swap_survivors();  // old to-space (with survivors) becomes from
  }
  return res;
}

}  // namespace mgc
