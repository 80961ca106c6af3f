#include "gc/g1_gc.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "gc/marking.h"
#include "gc/parallel_work.h"
#include "gc/plab.h"
#include "heap/poison.h"
#include "runtime/vm.h"
#include "support/fault.h"

namespace mgc {
namespace {
constexpr std::size_t kMarkBatch = 128;
}

G1Gc::G1Gc(Vm& vm, const VmConfig& cfg)
    : vm_(vm), cfg_(cfg), arena_(cfg.heap_bytes) {
  rm_.initialize(arena_.base(), arena_.size(), cfg.g1_region_bytes);
  cards_.initialize(arena_.base(), arena_.size());
  bot_.initialize(arena_.base(), arena_.size());
  bits_.initialize(arena_.base(), arena_.size());
  region_shift_ = static_cast<unsigned>(std::countr_zero(cfg.g1_region_bytes));
  max_young_regions_ = std::max<std::size_t>(2, cfg.young_bytes / cfg.g1_region_bytes);
}

G1Gc::~G1Gc() { MGC_CHECK(!bg_.joinable()); }

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
    const std::uint8_t age = o->age();
    char* dest = nullptr;
    bool to_old = false;
    // kG1EvacFail forces this object down the to-space-exhausted path
    // without consuming any destination region.
    const bool forced_fail = fault::should_fire(fault::Site::kG1EvacFail);
    if (!forced_fail && age < tenuring) {
      dest = fault::should_fire(fault::Site::kPlabRefill)
                 ? nullptr
                 : wk.surv_plab.alloc_refill(bytes, [&](std::size_t b) {
                     return surv_alloc.alloc(b);
                   });
    }
    if (!forced_fail && dest == nullptr) {
      dest = fault::should_fire(fault::Site::kOldAlloc)
                 ? nullptr
                 : wk.old_plab.alloc_refill(bytes, [&](std::size_t b) {
                     return old_alloc.alloc(b);
                   });
      to_old = dest != nullptr;
    }
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

    // Same copy protocol as the scavenger: body first, num_refs last.
    auto* d = reinterpret_cast<Obj*>(dest);
    std::memcpy(dest + sizeof(ObjHeader), o->start() + sizeof(ObjHeader),
                bytes - sizeof(ObjHeader));
    d->set_size_words_atomic(static_cast<std::uint32_t>(bytes / kWordSize));
    d->header().age = static_cast<std::uint8_t>(age >= 15 ? 15 : age + 1);
    d->header().forward.store(nullptr, std::memory_order_relaxed);
    d->header().flags.store(0, std::memory_order_release);
    d->set_num_refs_atomic(o->num_refs());
    // Record the block before the race is decided: a losing copy stays
    // behind as a dead cell in the old region, and a card base inside it
    // must still resolve to a cell start for later remembered-set walks.
    if (to_old) g1.bot_.record_block(d->start(), d->end());

    Obj* winner = o->forward_atomic(d);
    if (winner != d) {
      d->set_num_refs_atomic(0);
      d->header().flags.store(objflag::kDeadCopy, std::memory_order_release);
      return winner;
    }
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

  // Only for cards that wanted_rset_card() accepted at pause start.
  void process_rset_card(EvacWorker& wk, int w, std::size_t card_idx) {
    char* const cb = g1.cards_.card_base(card_idx);
    char* const ce = g1.cards_.card_end(card_idx);
    Obj* cell = g1.bot_.cell_covering(cb);
    while (cell->start() < ce) {
      Region* cr = g1.rm_.region_of(cell);
      if (cell->start() >= cr->top()) break;
      if (cell->num_refs() > 0) {
        char* const slots_begin = cell->start() + sizeof(ObjHeader);
        std::size_t i0 = 0;
        if (cb > slots_begin) {
          i0 = static_cast<std::size_t>(cb - slots_begin + kWordSize - 1) /
               kWordSize;
        }
        Region* cell_region = g1.rm_.region_of(cell);
        for (std::size_t i = i0; i < cell->num_refs(); ++i) {
          char* const slot_addr = slots_begin + i * sizeof(RefSlot);
          if (slot_addr >= ce) break;
          process_slot(wk, w, cell_region, cell->refs()[i]);
        }
      }
      cell = cell->next_in_space();
    }
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
      !cycle_active_.load(std::memory_order_relaxed)) {
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
  if (workers == 1) {
    worker_body(0);
  } else {
    vm_.workers().run(workers, worker_body);
  }
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
      bot_.clear_range(r->base, r->end);
      rm_.free_region(r);
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
      if (t == nullptr) continue;
      Region* tr = rm_.region_of(t);
      if (tr->in_cset.load(std::memory_order_acquire)) {
        Obj* f = t->forwardee();
        if (f == nullptr) {
          // Target was never evacuated: it is unreachable (a live holder
          // would have had it traced), so this cell is dead too. Null the
          // ref — its region is about to be recycled.
          cell->set_ref_raw(i, nullptr);
          continue;
        }
        if (f != t) {
          cell->set_ref_raw(i, f);
          t = f;
          tr = rm_.region_of(f);
        }
      }
      if (tr != r) {
        tr->rset.add_card(
            static_cast<std::uint32_t>(cards_.index_of(&cell->refs()[i])));
      }
    }
  });
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
  if (bits_.try_mark(t)) mark_stack_.push_back(t);
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
  mark_stack_.clear();
  abort_cycle_.store(false, std::memory_order_release);
  vm_.for_each_root_slot([&](Obj** slot) { mark_old_target(*slot); });
  satb_active_.store(true, std::memory_order_release);
  cycle_active_.store(true, std::memory_order_release);
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
    if (r.is_young()) {
      r.walk([&](Obj* cell) {
        const std::size_t n = cell->num_refs();
        for (std::size_t i = 0; i < n; ++i) mark_old_target(cell->ref(i));
      });
    }
  });
  // 4. Above-TAMS allocations in old regions (promotions, retyped failed
  //    regions): implicitly live, but their fields must be traced.
  rm_.for_each_region([&](Region& r) {
    if (r.type() != RegionType::kOld) return;
    char* cur = r.tams();
    char* const top = r.top();
    while (cur < top) {
      auto* cell = reinterpret_cast<Obj*>(cur);
      const std::size_t n = cell->num_refs();
      for (std::size_t i = 0; i < n; ++i) mark_old_target(cell->ref(i));
      cur = cell->end();
    }
  });
  // 5. Complete the closure.
  while (!mark_stack_.empty()) {
    Obj* o = mark_stack_.back();
    mark_stack_.pop_back();
    const std::size_t n = o->num_refs();
    for (std::size_t i = 0; i < n; ++i) {
      mark_old_target(o->refs()[i].load(std::memory_order_acquire));
    }
  }
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

PauseOutcome G1Gc::do_cleanup() {
  std::vector<Region*> to_free;
  rm_.for_each_region([&](Region& r) {
    if (r.type() == RegionType::kOld) {
      std::size_t live = 0;
      char* cur = r.base;
      char* const tams = r.tams();
      while (cur < tams) {
        auto* cell = reinterpret_cast<Obj*>(cur);
        if (bits_.is_marked(cell)) live += cell->size_bytes();
        cur = cell->end();
      }
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
    if (r->type() == RegionType::kHumongousHead) {
      // Free the head and all continuation regions.
      std::size_t i = r->index;
      bot_.clear_range(r->base, r->end);
      Region* head = r;
      rm_.free_region(head);
      for (++i; i < rm_.num_regions(); ++i) {
        Region& c = rm_.region_at(i);
        if (c.type() != RegionType::kHumongousCont ||
            c.humongous_head != head) {
          break;
        }
        bot_.clear_range(c.base, c.end);
        rm_.free_region(&c);
      }
    } else {
      bot_.clear_range(r->base, r->end);
      rm_.free_region(r);
    }
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
  cycle_active_.store(false, std::memory_order_release);
  cycles_.fetch_add(1, std::memory_order_acq_rel);

  PauseOutcome out;
  out.kind = PauseKind::kCleanup;
  out.cause = GcCause::kOccupancyTrigger;
  return out;
}

// --- full collection (serial, as in OpenJDK8) ------------------------------------

namespace {

// Region-aware sliding destination cursor for the full compaction.
class RegionDest {
 public:
  RegionDest(RegionManager& rm, const std::vector<bool>& skip)
      : rm_(rm), skip_(skip) {}

  char* alloc(std::size_t bytes) {
    while (true) {
      if (cur_ != nullptr &&
          static_cast<std::size_t>(cur_->end - pos_) >= bytes) {
        char* p = pos_;
        pos_ += bytes;
        return p;
      }
      if (cur_ != nullptr) fills_.emplace_back(cur_, pos_);
      cur_ = nullptr;
      while (next_ < rm_.num_regions() && skip_[next_]) ++next_;
      if (next_ >= rm_.num_regions()) return nullptr;
      cur_ = &rm_.region_at(next_++);
      pos_ = cur_->base;
    }
  }

  void finish() {
    if (cur_ != nullptr) fills_.emplace_back(cur_, pos_);
    cur_ = nullptr;
  }

  const std::vector<std::pair<Region*, char*>>& fills() const {
    return fills_;
  }

 private:
  RegionManager& rm_;
  const std::vector<bool>& skip_;
  Region* cur_ = nullptr;
  char* pos_ = nullptr;
  std::size_t next_ = 0;
  std::vector<std::pair<Region*, char*>> fills_;
};

}  // namespace

void G1Gc::abort_cycle_in_pause() {
  satb_active_.store(false, std::memory_order_release);
  cycle_active_.store(false, std::memory_order_release);
  abort_cycle_.store(true, std::memory_order_release);
  mixed_pending_.store(false, std::memory_order_release);
  mixed_candidates_.clear();
  SpinLockGuard g(satb_lock_);
  satb_buffer_.clear();
}

PauseOutcome G1Gc::full_gc(GcCause cause) {
  abort_cycle_in_pause();
  vm_.retire_all_tlabs();
  mutator_region_ = nullptr;

  // Phase 1: serial mark (this is what makes G1's forced full collections
  // the slowest in the study, as in OpenJDK8).
  mark_from_roots(vm_, nullptr, 1);

  // Free dead humongous objects outright; live ones are pinned in place.
  std::vector<bool> skip(rm_.num_regions(), false);
  std::vector<Obj*> live;
  for (std::size_t i = 0; i < rm_.num_regions(); ++i) {
    Region& r = rm_.region_at(i);
    if (r.type() != RegionType::kHumongousHead) continue;
    auto* h = reinterpret_cast<Obj*>(r.base);
    Region* head = &r;
    if (h->is_marked()) {
      h->set_forward(h);  // pinned: moves to itself
      live.push_back(h);  // header fixup + ref update with the others
      skip[i] = true;
      for (std::size_t j = i + 1; j < rm_.num_regions(); ++j) {
        Region& c = rm_.region_at(j);
        if (c.type() != RegionType::kHumongousCont || c.humongous_head != head)
          break;
        skip[j] = true;
      }
    } else {
      bot_.clear_range(r.base, r.end);
      rm_.free_region(head);
      for (std::size_t j = i + 1; j < rm_.num_regions(); ++j) {
        Region& c = rm_.region_at(j);
        if (c.type() != RegionType::kHumongousCont || c.humongous_head != head)
          break;
        bot_.clear_range(c.base, c.end);
        rm_.free_region(&c);
      }
    }
  }

  // Phase 2: forwarding addresses, walking every non-humongous region in
  // address order, packing into the same region sequence. The slide bumps
  // through regions directly — including free (poisoned) ones — so re-admit
  // the whole heap; rebuild() re-poisons everything that stays free and the
  // phase-5 fill commit re-zaps the kept regions' dead tails.
  poison::unpoison(rm_.heap_base(),
                   static_cast<std::size_t>(rm_.heap_end() - rm_.heap_base()));
  RegionDest dest(rm_, skip);
  std::vector<Obj*> moved;
  rm_.for_each_region([&](Region& r) {
    if (r.is_free() || r.type() == RegionType::kHumongousHead ||
        r.type() == RegionType::kHumongousCont) {
      return;
    }
    r.walk([&](Obj* cell) {
      if (!cell->is_marked()) return;
      char* d = dest.alloc(cell->size_bytes());
      MGC_CHECK_MSG(d != nullptr, "OutOfMemory: G1 full GC cannot fit live data");
      cell->set_forward(reinterpret_cast<Obj*>(d));
      moved.push_back(cell);
    });
  });
  dest.finish();

  // Phase 3: update references (serial).
  vm_.for_each_root_slot([&](Obj** slot) {
    if (*slot != nullptr) *slot = (*slot)->forwardee();
  });
  auto update_refs = [](Obj* o) {
    const std::size_t n = o->num_refs();
    for (std::size_t i = 0; i < n; ++i) {
      Obj* t = o->refs()[i].load(std::memory_order_relaxed);
      if (t != nullptr)
        o->refs()[i].store(t->forwardee(), std::memory_order_relaxed);
    }
  };
  for (Obj* o : moved) update_refs(o);
  for (Obj* o : live) update_refs(o);

  // Phase 4: move (ascending; dest never overtakes source).
  bot_.clear();
  std::vector<Obj*> dests;
  dests.reserve(moved.size());
  for (Obj* src : moved) {
    auto* d = reinterpret_cast<Obj*>(src->forwardee());
    const std::size_t bytes = src->size_bytes();
    if (d != src) std::memmove(d->start(), src->start(), bytes);
    d->header().forward.store(nullptr, std::memory_order_relaxed);
    d->clear_mark();
    bot_.record_block(d->start(), d->end());
    dests.push_back(d);
  }
  for (Obj* h : live) {  // pinned humongous
    h->set_forward(nullptr);
    h->clear_mark();
    bot_.record_block(h->start(), h->start() + h->size_bytes());
  }

  // Phase 5: region metadata. Filled regions become old; the rest is freed.
  for (const auto& [region, top] : dest.fills()) {
    region->set_top(top);
    region->set_type(RegionType::kOld);
    region->set_tams(region->base);
    region->rset.clear();
    region->live_bytes.store(region->used(), std::memory_order_release);
    poison::zap_and_poison(top, static_cast<std::size_t>(region->end - top),
                           poison::kRegionZap);
  }
  std::vector<bool> keep(rm_.num_regions(), false);
  for (const auto& [region, top] : dest.fills()) {
    if (top > region->base) keep[region->index] = true;
  }
  for (std::size_t i = 0; i < rm_.num_regions(); ++i) {
    if (skip[i]) keep[i] = true;  // live humongous
  }
  rm_.rebuild([&](Region& r) { return keep[r.index]; });

  // Phase 6: rebuild remembered sets from the live graph.
  auto record_rsets = [&](Obj* o) {
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
  };
  for (Obj* d : dests) record_rsets(d);
  for (Obj* h : live) record_rsets(h);

  eden_regions_.clear();
  survivor_regions_.clear();

  PauseOutcome out;
  out.kind = PauseKind::kFullGc;
  out.cause = cause;
  out.full = true;
  return out;
}

PauseOutcome G1Gc::collect_full(GcCause cause) { return full_gc(cause); }

// --- background thread ---------------------------------------------------------------

void G1Gc::start_background() {
  bg_ = std::thread([this] {
    SafepointCoordinator& sp = vm_.safepoints();
    sp.register_thread();
    while (true) {
      {
        SafepointCoordinator::BlockedScope blocked(sp);
        MutexLock l(bg_mu_);
        bg_cv_.wait(l, [&]() MGC_REQUIRES(bg_mu_) { return bg_stop_ || cycle_requested_; });
        if (bg_stop_) break;
        cycle_requested_ = false;
      }
      GcCostCounters::CycleScope cost(vm_.cost_counters());
      // Initial mark piggybacks a young evacuation pause.
      vm_.run_vm_op(GcCause::kOccupancyTrigger, /*caller_is_registered=*/true,
                    [this] {
                      return evacuate_pause(GcCause::kOccupancyTrigger,
                                            /*initial_mark=*/true);
                    });
      // Concurrent mark.
      bool aborted = false;
      while (true) {
        vm_.safepoints().poll();
        {
          MutexLock l(bg_mu_);
          if (bg_stop_) aborted = true;
        }
        if (abort_cycle_.load(std::memory_order_acquire)) aborted = true;
        if (aborted) {
          mark_stack_.clear();
          break;
        }
        if (mark_stack_.empty()) break;
        for (std::size_t i = 0; i < kMarkBatch && !mark_stack_.empty(); ++i) {
          Obj* o = mark_stack_.back();
          mark_stack_.pop_back();
          const std::size_t n = o->num_refs();
          for (std::size_t r = 0; r < n; ++r) {
            mark_old_target(o->refs()[r].load(std::memory_order_acquire));
          }
        }
      }
      if (aborted) continue;
      vm_.run_vm_op(GcCause::kOccupancyTrigger, true,
                    [this] { return do_remark(); });
      if (abort_cycle_.load(std::memory_order_acquire)) continue;
      vm_.run_vm_op(GcCause::kOccupancyTrigger, true,
                    [this] { return do_cleanup(); });
    }
    sp.unregister_thread();
  });
}

void G1Gc::stop_background() {
  {
    MutexLock g(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (bg_.joinable()) bg_.join();
}

void G1Gc::maybe_start_concurrent() {
  if (cycle_active_.load(std::memory_order_acquire)) return;
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
  {
    MutexLock g(bg_mu_);
    cycle_requested_ = true;
  }
  bg_cv_.notify_all();
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
