#include "gc/g1_gc.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>
#include <thread>

#include "gc/marking.h"
#include "gc/parallel_work.h"
#include "gc/plab.h"
#include "heap/poison.h"
#include "runtime/vm.h"
#include "support/fault.h"

namespace mgc {

G1Gc::G1Gc(Vm& vm, const VmConfig& cfg)
    : vm_(vm), cfg_(cfg), arena_(cfg.heap_bytes),
      cycle_(vm.safepoints(), vm.cost_counters()) {
  rm_.initialize(arena_.base(), arena_.size(), cfg.g1_region_bytes);
  cards_.initialize(arena_.base(), arena_.size());
  bot_.initialize(arena_.base(), arena_.size());
  bits_.initialize(arena_.base(), arena_.size());
  region_shift_ = static_cast<unsigned>(std::countr_zero(cfg.g1_region_bytes));
  max_young_regions_ = std::max<std::size_t>(2, cfg.young_bytes / cfg.g1_region_bytes);
}

BarrierDescriptor G1Gc::barrier_descriptor() {
  BarrierDescriptor bd;
  bd.kind = BarrierDescriptor::Kind::kG1;
  bd.heap_base = rm_.heap_base();
  bd.heap_end = rm_.heap_end();
  bd.region_shift = region_shift_;
  bd.satb_active = &satb_active_;
  return bd;
}

// --- allocation ---------------------------------------------------------------

std::size_t G1Gc::eden_quota() const {
  const std::size_t survivors = survivor_regions_.size();
  return max_young_regions_ > survivors + 1 ? max_young_regions_ - survivors
                                            : 1;
}

char* G1Gc::young_alloc_locked(std::size_t bytes) {
  // Evacuation reserve (HotSpot's G1ReservePercent, default 10%): keep a
  // slice of free regions for copy destinations so a young pause does not
  // immediately fail evacuation under high occupancy.
  const std::size_t reserve = std::max<std::size_t>(2, rm_.num_regions() / 10);
  while (true) {
    if (mutator_region_ != nullptr) {
      if (char* p = mutator_region_->par_alloc(bytes)) return p;
    }
    if (eden_regions_.size() >= eden_quota()) return nullptr;
    if (!eden_regions_.empty() && rm_.free_region_count() <= reserve)
      return nullptr;
    Region* r = rm_.allocate_region(RegionType::kEden);
    if (r == nullptr) return nullptr;
    eden_regions_.push_back(r);
    mutator_region_ = r;
  }
}

char* G1Gc::alloc_tlab(std::size_t bytes) {
  SpinLockGuard g(alloc_lock_);
  return young_alloc_locked(bytes);
}

Obj* G1Gc::alloc_direct(std::size_t size_words, std::uint16_t num_refs) {
  const std::size_t bytes = words_to_bytes(size_words);
  if (bytes > rm_.region_bytes() / 2) {
    // Humongous: contiguous whole regions, never moved by evacuation.
    const std::size_t nregions =
        (bytes + rm_.region_bytes() - 1) / rm_.region_bytes();
    SpinLockGuard g(alloc_lock_);
    Region* head = rm_.allocate_humongous(nregions);
    if (head == nullptr) return nullptr;
    char* const start = head->base;
    char* const data_end = start + bytes;
    for (std::size_t i = 0; i < nregions; ++i) {
      Region& r = rm_.region_at(head->index + i);
      r.set_top(std::min(r.end, data_end));
      r.set_tams(r.base);
    }
    Obj* o = Obj::init(start, size_words, num_refs);
    o->set_flag(objflag::kHumongous);
    bot_.record_block(start, data_end);
    return o;
  }
  SpinLockGuard g(alloc_lock_);
  char* p = young_alloc_locked(bytes);
  if (p == nullptr) return nullptr;
  return Obj::init(p, size_words, num_refs);
}

// --- barriers -------------------------------------------------------------------

void G1Gc::rset_record(void* slot_addr, Obj* value) {
  Region* hr = rm_.region_of(slot_addr);
  // Young regions are always collected in full, so only old/humongous
  // holders need remembered-set entries.
  if (!hr->is_old_or_humongous()) return;
  Region* vr = rm_.region_of(value);
  if (vr == hr) return;
  vr->rset.add_card(static_cast<std::uint32_t>(cards_.index_of(slot_addr)));
}

void G1Gc::satb_record(Mutator& /*m*/, Obj* old_value) {
  if (!satb_active_.load(std::memory_order_acquire)) return;
  Region* r = rm_.region_of(old_value);
  if (!r->is_old_or_humongous()) return;
  if (old_value->start() >= r->tams()) return;  // implicitly live
  if (bits_.is_marked(old_value)) return;
  SpinLockGuard g(satb_lock_);
  satb_buffer_.push_back(old_value);
}

// --- evacuation -----------------------------------------------------------------

namespace {

// Shared destination allocator handing whole regions to worker PLABs.
struct DestAlloc {
  SpinLock lock;
  RegionManager* rm = nullptr;
  RegionType type = RegionType::kSurvivor;
  Region* cur = nullptr;
  std::vector<Region*> taken;

  char* alloc(std::size_t bytes) {
    SpinLockGuard g(lock);
    while (true) {
      if (cur != nullptr) {
        if (char* p = cur->par_alloc(bytes)) return p;
      }
      Region* r = rm->allocate_region(type);
      if (r == nullptr) return nullptr;
      taken.push_back(r);
      cur = r;
    }
  }
};

struct EvacWorker {
  EvacWorker(std::size_t plab_bytes, BlockOffsetTable* bot)
      : surv_plab(plab_bytes), old_plab(plab_bytes, bot) {}
  Plab surv_plab;
  Plab old_plab;
  std::size_t copied = 0;
};

}  // namespace

struct G1EvacShared {
  G1Gc& g1;
  WorkSet<Obj*> work;
  std::vector<Obj**> root_slots;
  std::vector<std::uint32_t> rset_cards;
  DestAlloc surv_alloc;
  DestAlloc old_alloc;
  std::atomic<std::size_t> copied_bytes{0};
  std::atomic<bool> any_failure{false};
  std::atomic<std::int64_t> root_scan_ns{0};
  std::atomic<std::int64_t> rset_scan_ns{0};
  std::atomic<std::int64_t> evac_drain_ns{0};
  int tenuring;

  G1EvacShared(G1Gc& g, int workers) : g1(g), work(workers) {
    surv_alloc.rm = &g.rm_;
    surv_alloc.type = RegionType::kSurvivor;
    old_alloc.rm = &g.rm_;
    old_alloc.type = RegionType::kOld;
    tenuring = g.cfg_.tenuring_threshold;
  }

  Obj* copy(EvacWorker& wk, int w, Obj* o) {
    Region* oreg = g1.rm_.region_of(o);
    if (!oreg->in_cset.load(std::memory_order_relaxed)) return o;
    if (Obj* f = o->forwardee()) return f;

    const std::size_t bytes = o->size_bytes();
    bool to_old = false;
    char* const dest = alloc_copy_dest(
        bytes, o->age() >= tenuring, fault::Site::kG1EvacFail, wk.surv_plab,
        wk.old_plab,
        [&](bool old, std::size_t b) {
          return old ? old_alloc.alloc(b) : surv_alloc.alloc(b);
        },
        &to_old);
    if (dest == nullptr) {
      // Evacuation failure: keep in place (self-forward); the region is
      // retained and retyped old after the pause.
      Obj* winner = o->forward_atomic(o);
      if (winner == o) {
        oreg->evac_failed.store(true, std::memory_order_release);
        any_failure.store(true, std::memory_order_release);
        work.push(w, o);
      }
      return winner;
    }

    // Record the block before the race is decided: a losing copy stays
    // behind as a dead cell in the old region, and a card base inside it
    // must still resolve to a cell start for later remembered-set walks.
    Obj* const d = copy_and_forward(o, dest, bytes, [&](Obj* c) {
      if (to_old) g1.bot_.record_block(c->start(), c->end());
    });
    if (d != reinterpret_cast<Obj*>(dest)) return d;  // lost the race
    wk.copied += bytes;
    work.push(w, d);
    return d;
  }

  void process_slot(EvacWorker& wk, int w, Region* holder_region,
                    RefSlot& slot) {
    Obj* t = slot.load(std::memory_order_relaxed);
    if (t == nullptr) return;
    Region* tr = g1.rm_.region_of(t);
    if (tr->in_cset.load(std::memory_order_relaxed)) {
      t = copy(wk, w, t);
      slot.store(t, std::memory_order_relaxed);
      tr = g1.rm_.region_of(t);
    }
    // Remembered-set maintenance: old/humongous holders record their card
    // in the target's region (incl. old->young for the next young pause).
    if (holder_region->is_old_or_humongous() && tr != holder_region) {
      tr->rset.add_card(
          static_cast<std::uint32_t>(g1.cards_.index_of(&slot)));
    }
  }

  void scan_object(EvacWorker& wk, int w, Obj* x) {
    Region* xr = g1.rm_.region_of(x);
    const std::size_t n = x->num_refs();
    for (std::size_t i = 0; i < n; ++i) process_slot(wk, w, xr, x->refs()[i]);
  }

  // Only for cards that wanted_rset_card() accepted at pause start. Each
  // cell is parsable up to the top of the region it starts in.
  void process_rset_card(EvacWorker& wk, int w, std::size_t card_idx) {
    RegionManager& rm = g1.rm_;
    for_each_slot_on_card(
        g1.bot_, g1.cards_, card_idx,
        [&](const char* cell) { return rm.region_of(cell)->top(); },
        [&](Obj* cell, RefSlot& slot) {
          process_slot(wk, w, rm.region_of(cell), slot);
        });
  }
};

// Remembered sets only grow, so a card may name a region that was freed
// since. Filtering happens here, before the workers start: a region that is
// free now can become an evacuation destination during the pause, and
// walking it then would race the worker filling it.
bool G1Gc::wanted_rset_card(std::uint32_t card_idx) {
  char* const cb = cards_.card_base(card_idx);
  Region* src = rm_.region_of(cb);
  if (!src->is_old_or_humongous()) return false;  // recycled region
  if (src->in_cset.load(std::memory_order_relaxed)) return false;  // traced
  return cb < src->top();
}

PauseOutcome G1Gc::evacuate_pause(GcCause cause, bool initial_mark) {
  vm_.retire_all_tlabs();
  mutator_region_ = nullptr;

  // Collection set: all young regions, plus — in a mixed pause — the
  // highest-garbage old candidates that fit the pause-time model.
  std::vector<Region*> cset;
  cset.reserve(eden_regions_.size() + survivor_regions_.size() + 8);
  for (Region* r : eden_regions_) cset.push_back(r);
  for (Region* r : survivor_regions_) cset.push_back(r);

  bool mixed = false;
  if (mixed_pending_.load(std::memory_order_acquire) && !initial_mark &&
      !cycle_.active()) {
    double budget_s = cfg_.g1_pause_target_ms / 1000.0;
    double est = 0.0;
    for (Region* r : survivor_regions_)
      est += static_cast<double>(r->used()) * secs_per_byte_;
    for (Region* r : eden_regions_)
      est += 0.3 * static_cast<double>(r->used()) * secs_per_byte_;
    auto it = mixed_candidates_.begin();
    while (it != mixed_candidates_.end()) {
      Region& r = rm_.region_at(*it);
      if (r.type() != RegionType::kOld) {
        it = mixed_candidates_.erase(it);
        continue;
      }
      const double cost =
          static_cast<double>(r.live_bytes.load(std::memory_order_relaxed)) *
          secs_per_byte_;
      if (est + cost > budget_s && mixed) break;
      est += cost;
      cset.push_back(&r);
      mixed = true;
      it = mixed_candidates_.erase(it);
    }
    if (mixed_candidates_.empty())
      mixed_pending_.store(false, std::memory_order_release);
  }

  for (Region* r : cset) r->in_cset.store(true, std::memory_order_release);

  const int workers = cfg_.effective_gc_threads();
  G1EvacShared sh(*this, workers);
  vm_.for_each_root_slot([&](Obj** slot) { sh.root_slots.push_back(slot); });
  for (Region* r : cset) {
    for (std::uint32_t c : r->rset.snapshot()) {
      if (wanted_rset_card(c)) sh.rset_cards.push_back(c);
    }
  }

  ChunkClaimer root_claimer(sh.root_slots.size(), 64);
  ChunkClaimer card_claimer(sh.rset_cards.size(), 16);

  const std::int64_t t0 = now_ns();
  auto worker_body = [&](int w) {
    // Simulated slow worker: stretches the pause without touching heap
    // state (the pause's critical path is its slowest worker).
    if (fault::should_fire(fault::Site::kGcWorkerStall)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EvacWorker wk(8 * KiB, &bot_);
    const std::int64_t w0 = now_ns();
    std::size_t b, e;
    while (root_claimer.claim(&b, &e)) {
      for (std::size_t i = b; i < e; ++i) {
        Obj** slot = sh.root_slots[i];
        Obj* t = *slot;
        if (t != nullptr &&
            rm_.region_of(t)->in_cset.load(std::memory_order_relaxed)) {
          *slot = sh.copy(wk, w, t);
        }
      }
    }
    const std::int64_t w1 = now_ns();
    while (card_claimer.claim(&b, &e)) {
      for (std::size_t i = b; i < e; ++i)
        sh.process_rset_card(wk, w, sh.rset_cards[i]);
    }
    const std::int64_t w2 = now_ns();
    sh.work.drain(w, [&](Obj* o) { sh.scan_object(wk, w, o); });
    wk.surv_plab.retire();
    wk.old_plab.retire();
    const std::int64_t w3 = now_ns();
    sh.copied_bytes.fetch_add(wk.copied, std::memory_order_relaxed);
    fold_max(sh.root_scan_ns, w1 - w0);
    fold_max(sh.rset_scan_ns, w2 - w1);
    fold_max(sh.evac_drain_ns, w3 - w2);
  };
  run_workers(&vm_.workers(), workers, worker_body);
  const std::int64_t t1 = now_ns();

  // Dispose of the collection set. Failed regions are fixed up FIRST,
  // while every cset region (and its forwarding pointers) still exists:
  // their retained cells — dead ones included — may reference objects that
  // were evacuated out of other cset regions, and those references must be
  // redirected (or nulled, for unreachable targets) before the source
  // regions are recycled.
  for (Region* r : cset) {
    if (r->evac_failed.load(std::memory_order_acquire)) {
      handle_failed_region(r);
    }
  }
  for (Region* r : cset) {
    if (r->evac_failed.load(std::memory_order_acquire)) {
      // Second pass: clear the self-forwards (only after every failed
      // region's references were fixed against them).
      r->evac_failed.store(false, std::memory_order_release);
      r->in_cset.store(false, std::memory_order_release);
      r->walk([&](Obj* cell) {
        if (cell->forwardee() == cell) cell->set_forward(nullptr);
      });
    } else {
      release(r);
    }
  }
  eden_regions_.clear();
  survivor_regions_ = sh.surv_alloc.taken;

  // Pause-time model update (EMA).
  const std::size_t copied = sh.copied_bytes.load(std::memory_order_relaxed);
  if (copied > 4096) {
    const double obs = ns_to_s(t1 - t0) / static_cast<double>(copied);
    secs_per_byte_ = 0.7 * secs_per_byte_ + 0.3 * obs;
  }

  if (sh.any_failure.load(std::memory_order_acquire)) {
    evac_failures_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (initial_mark) setup_marking_in_pause();
  if (mixed) mixed_pauses_.fetch_add(1, std::memory_order_acq_rel);

  PauseOutcome out;
  out.kind = initial_mark ? PauseKind::kInitialMark
                          : (mixed ? PauseKind::kMixedGc : PauseKind::kYoungGc);
  if (sh.any_failure.load(std::memory_order_acquire)) {
    out.cause = GcCause::kEvacuationFailure;
    out.failures.evacuation_failures = 1;
  } else {
    out.cause = cause;
  }
  out.full = false;
  out.phases.root_scan_ns = sh.root_scan_ns.load(std::memory_order_relaxed);
  out.phases.card_scan_ns = sh.rset_scan_ns.load(std::memory_order_relaxed);
  out.phases.evac_drain_ns = sh.evac_drain_ns.load(std::memory_order_relaxed);
  out.phases.termination_ns = sh.work.max_termination_ns();
  out.phases.steals = sh.work.steals();
  return out;
}

void G1Gc::handle_failed_region(Region* r) {
  if (r->is_young()) r->set_type(RegionType::kOld);
  // All current content must be treated as live by an in-progress marking:
  // TAMS at base makes every cell "allocated during the cycle", and the
  // remark pause's above-TAMS rescan will trace their fields.
  r->set_tams(r->base);
  r->walk([&](Obj* cell) {
    bot_.record_block(cell->start(), cell->end());
    const std::size_t n = cell->num_refs();
    for (std::size_t i = 0; i < n; ++i) {
      Obj* t = cell->ref(i);
      if (t == nullptr ||
          !rm_.region_of(t)->in_cset.load(std::memory_order_acquire)) {
        continue;
      }
      // Redirect to the forwardee. A target that was never evacuated has
      // none: it is unreachable (a live holder would have had it traced),
      // so this cell is dead too, and the ref is nulled before the
      // target's region is recycled.
      cell->set_ref_raw(i, t->forwardee());
    }
    record_rsets(cell);
  });
}

void G1Gc::record_rsets(Obj* o) {
  Region* hr = rm_.region_of(o);
  const std::size_t n = o->num_refs();
  for (std::size_t i = 0; i < n; ++i) {
    Obj* t = o->ref(i);
    if (t == nullptr) continue;
    Region* tr = rm_.region_of(t);
    if (tr != hr) {
      tr->rset.add_card(
          static_cast<std::uint32_t>(cards_.index_of(&o->refs()[i])));
    }
  }
}

PauseOutcome G1Gc::collect_young(GcCause cause) {
  return evacuate_pause(cause, /*initial_mark=*/false);
}

// --- concurrent marking ------------------------------------------------------------

void G1Gc::mark_old_target(Obj* t) {
  if (t == nullptr) return;
  Region* r = rm_.region_of(t);
  if (!r->is_old_or_humongous()) return;
  if (t->start() >= r->tams()) return;  // implicitly live, fields rescanned at remark
  if (bits_.try_mark(t)) cycle_.push(t);
}

void G1Gc::scan_cell_refs(Obj* cell) {
  const std::size_t n = cell->num_refs();
  for (std::size_t i = 0; i < n; ++i) mark_old_target(cell->ref(i));
}

void G1Gc::setup_marking_in_pause() {
  bits_.clear_all();
  rm_.for_each_region([&](Region& r) {
    if (r.is_old_or_humongous()) {
      r.set_tams(r.top());
    } else {
      r.set_tams(r.base);
    }
  });
  {
    SpinLockGuard g(satb_lock_);
    satb_buffer_.clear();
  }
  cycle_.begin();
  vm_.for_each_root_slot([&](Obj** slot) { mark_old_target(*slot); });
  satb_active_.store(true, std::memory_order_release);
}

PauseOutcome G1Gc::do_remark() {
  vm_.retire_all_tlabs();
  // 1. SATB buffers.
  {
    SpinLockGuard g(satb_lock_);
    for (Obj* t : satb_buffer_) mark_old_target(t);
    satb_buffer_.clear();
  }
  // 2. Roots again.
  vm_.for_each_root_slot([&](Obj** slot) { mark_old_target(*slot); });
  // 3. Young regions (objects allocated or kept during the cycle).
  rm_.for_each_region([&](Region& r) {
    if (r.is_young()) r.walk([&](Obj* cell) { scan_cell_refs(cell); });
  });
  // 4. Above-TAMS allocations in old regions (promotions, retyped failed
  //    regions): implicitly live, but their fields must be traced.
  rm_.for_each_region([&](Region& r) {
    if (r.type() != RegionType::kOld) return;
    for_each_cell(r.tams(), r.top(),
                  [this](Obj* cell) { scan_cell_refs(cell); });
  });
  // 5. Complete the closure.
  cycle_.drain([this](Obj* o) { scan_cell_refs(o); });
  satb_active_.store(false, std::memory_order_release);

  PauseOutcome out;
  out.kind = PauseKind::kRemark;
  out.cause = GcCause::kOccupancyTrigger;
  return out;
}

void G1Gc::purge_refs_into(Region* dying) {
  for (std::uint32_t card : dying->rset.snapshot()) {
    char* const cb = cards_.card_base(card);
    char* const ce = cards_.card_end(card);
    Region* src = rm_.region_of(cb);
    if (src == dying || !src->is_old_or_humongous()) continue;
    if (cb >= src->top()) continue;
    Obj* cell = bot_.cell_covering(cb);
    while (cell->start() < ce && cell->start() < src->top()) {
      const std::size_t n = cell->num_refs();
      for (std::size_t i = 0; i < n; ++i) {
        Obj* t = cell->ref(i);
        if (t != nullptr && dying->contains(t)) {
          cell->set_ref_raw(i, nullptr);
        }
      }
      cell = cell->next_in_space();
    }
  }
}

void G1Gc::release(Region* r) {
  const std::size_t n =
      r->type() == RegionType::kHumongousHead ? rm_.humongous_span(*r) : 1;
  bot_.clear_range(r->base, r->base + n * rm_.region_bytes());
  for (std::size_t i = r->index; i < r->index + n; ++i) {
    rm_.free_region(&rm_.region_at(i));
  }
}

PauseOutcome G1Gc::do_cleanup() {
  std::vector<Region*> to_free;
  rm_.for_each_region([&](Region& r) {
    if (r.type() == RegionType::kOld) {
      std::size_t live = 0;
      char* const tams = r.tams();
      for_each_cell(r.base, tams, [&](Obj* cell) {
        if (bits_.is_marked(cell)) live += cell->size_bytes();
      });
      live += static_cast<std::size_t>(r.top() - tams);
      r.live_bytes.store(live, std::memory_order_release);
      if (live == 0 && r.used() > 0) to_free.push_back(&r);
    } else if (r.type() == RegionType::kHumongousHead) {
      auto* h = reinterpret_cast<Obj*>(r.base);
      const bool below_tams = r.tams() > r.base;
      if (below_tams && !bits_.is_marked(h)) to_free.push_back(&r);
    }
  });

  for (Region* r : to_free) {
    purge_refs_into(r);
    release(r);
  }

  // Mixed collection candidates: most garbage first.
  mixed_candidates_.clear();
  rm_.for_each_region([&](Region& r) {
    if (r.type() != RegionType::kOld) return;
    const std::size_t live = r.live_bytes.load(std::memory_order_acquire);
    const std::size_t used = r.used();
    if (used <= live) return;
    const std::size_t garbage = used - live;
    if (static_cast<double>(garbage) >
        cfg_.g1_mixed_garbage_threshold *
            static_cast<double>(rm_.region_bytes())) {
      mixed_candidates_.push_back(r.index);
    }
  });
  std::sort(mixed_candidates_.begin(), mixed_candidates_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Region& ra = rm_.region_at(a);
              const Region& rb = rm_.region_at(b);
              return ra.used() - ra.live_bytes.load(std::memory_order_relaxed) >
                     rb.used() - rb.live_bytes.load(std::memory_order_relaxed);
            });
  mixed_pending_.store(!mixed_candidates_.empty(), std::memory_order_release);
  cycle_.finish();

  PauseOutcome out;
  out.kind = PauseKind::kCleanup;
  out.cause = GcCause::kOccupancyTrigger;
  return out;
}

// --- full collection (serial, as in OpenJDK8) ------------------------------------

PauseOutcome G1Gc::collect_full(GcCause cause) {
  // Abandon any marking cycle and its mixed candidates.
  satb_active_.store(false, std::memory_order_release);
  cycle_.abort();
  mixed_pending_.store(false, std::memory_order_release);
  mixed_candidates_.clear();
  {
    SpinLockGuard g(satb_lock_);
    satb_buffer_.clear();
  }
  vm_.retire_all_tlabs();
  mutator_region_ = nullptr;

  // Phase 1: serial mark (this is what makes G1's forced full collections
  // the slowest in the study, as in OpenJDK8).
  mark_from_roots(vm_, nullptr, 1);

  // Free dead humongous objects outright; live ones are pinned in place:
  // forwarded to themselves, they join the live list for the reference
  // update and the slide.
  std::vector<bool> skip(rm_.num_regions(), false);
  std::vector<Obj*> live;
  for (std::size_t i = 0; i < rm_.num_regions(); ++i) {
    Region& r = rm_.region_at(i);
    if (r.type() != RegionType::kHumongousHead) continue;
    auto* h = reinterpret_cast<Obj*>(r.base);
    if (!h->is_marked()) {
      release(&r);
      continue;
    }
    h->set_forward(h);
    live.push_back(h);
    const std::size_t n = rm_.humongous_span(r);
    std::fill_n(skip.begin() + static_cast<std::ptrdiff_t>(i), n, true);
  }

  // Phase 2: forwarding addresses, walking every non-humongous region in
  // address order, packing into the same region sequence. The slide bumps
  // through regions directly — including free (poisoned) ones, which the
  // cursor re-admits; rebuild() re-poisons everything that stays free and
  // the phase-5 fill commit re-zaps the kept regions' dead tails.
  DestinationCursor dest;
  std::vector<Region*> dest_regions;
  for (std::size_t i = 0; i < rm_.num_regions(); ++i) {
    if (skip[i]) continue;
    Region& r = rm_.region_at(i);
    dest.add_range(r.base, r.end);
    dest_regions.push_back(&r);
  }
  rm_.for_each_region([&](Region& r) {
    if (r.is_free() || r.type() == RegionType::kHumongousHead ||
        r.type() == RegionType::kHumongousCont) {
      return;
    }
    r.walk([&](Obj* cell) { dest.forward(cell, live); });
  });

  // Phases 3 and 4: update references and slide, serially like the rest
  // of OpenJDK8's G1 full GC.
  bot_.clear();
  update_refs_and_slide(vm_, live, nullptr, 1, [&](Obj* d) {
    bot_.record_block(d->start(), d->end());
  });

  // Phase 5: region metadata. Filled regions become old; the rest, bar
  // the live humongous ones, is freed.
  std::vector<bool> keep = skip;
  for (std::size_t i = 0; i < dest_regions.size(); ++i) {
    Region* region = dest_regions[i];
    char* const top = dest.level(i);
    if (top == region->base) continue;
    keep[region->index] = true;
    region->set_top(top);
    region->set_type(RegionType::kOld);
    region->set_tams(region->base);
    region->rset.clear();
    region->live_bytes.store(region->used(), std::memory_order_release);
    poison::zap_and_poison(top, static_cast<std::size_t>(region->end - top),
                           poison::kRegionZap);
  }
  rm_.rebuild([&](Region& r) { return keep[r.index]; });

  // Phase 6: rebuild remembered sets from the live graph.
  for (Obj* o : live) record_rsets(o);

  eden_regions_.clear();
  survivor_regions_.clear();

  PauseOutcome out;
  out.kind = PauseKind::kFullGc;
  out.cause = cause;
  out.full = true;
  return out;
}

// --- background thread ---------------------------------------------------------------

void G1Gc::start_background() {
  cycle_.launch([this] { run_cycle(); });
}

void G1Gc::stop_background() { cycle_.stop(); }

void G1Gc::run_cycle() {
  // Initial mark piggybacks a young evacuation pause.
  vm_.run_vm_op(GcCause::kOccupancyTrigger, /*caller_is_registered=*/true,
                [this] {
                  return evacuate_pause(GcCause::kOccupancyTrigger,
                                        /*initial_mark=*/true);
                });
  if (!cycle_.drain_concurrently([this](Obj* o) { scan_cell_refs(o); })) {
    return;
  }
  vm_.run_vm_op(GcCause::kOccupancyTrigger, true,
                [this] { return do_remark(); });
  if (cycle_.aborted()) return;
  vm_.run_vm_op(GcCause::kOccupancyTrigger, true,
                [this] { return do_cleanup(); });
}

void G1Gc::maybe_start_concurrent() {
  if (cycle_.active()) return;
  // Like HotSpot, don't start a new marking cycle while the previous
  // cycle's mixed-collection candidates are still being drained — a new
  // cycle would starve the mixed pauses that actually reclaim old space.
  if (mixed_pending_.load(std::memory_order_acquire)) return;
  // HotSpot's initiating-occupancy test counts only non-young regions (old
  // and humongous): eden is emptied by the next young pause anyway, and
  // counting it would start a cycle every few MB of allocation once the
  // live data sits just below the threshold.
  const HeapUsage u = usage();
  if (static_cast<double>(u.old_used) <
      cfg_.g1_ihop * static_cast<double>(u.capacity)) {
    return;
  }
  cycle_.request();
}

// --- queries -----------------------------------------------------------------------

HeapUsage G1Gc::usage() const {
  HeapUsage u;
  u.capacity = rm_.num_regions() * rm_.region_bytes();
  u.young_capacity = max_young_regions_ * rm_.region_bytes();
  auto& rm = const_cast<RegionManager&>(rm_);
  for (std::size_t i = 0; i < rm.num_regions(); ++i) {
    const Region& r = rm.region_at(i);
    if (r.is_free()) continue;
    const std::size_t used = r.used();
    u.used += used;
    if (r.is_young()) {
      u.young_used += used;
    } else {
      u.old_used += used;
    }
  }
  u.old_capacity = u.capacity - u.young_capacity;
  return u;
}

}  // namespace mgc
