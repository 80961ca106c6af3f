// Garbage-First (G1): region-based heap, parallel evacuation pauses with a
// pause-time target, SATB concurrent marking, mixed collections, and — as
// in OpenJDK8, where it dominates this paper's "system GC" results — a
// SINGLE-THREADED full collection fallback.
//
// Structure of a cycle:
//   young pause (initial mark) — evacuate young; snapshot TAMS per old
//                                region; enable the SATB barrier
//   concurrent mark            — background thread traces old/humongous
//                                regions below TAMS
//   remark (STW)               — drain SATB buffers, rescan roots, young
//                                regions and above-TAMS allocations
//   cleanup (STW)              — per-region liveness; free zero-live
//                                regions (after purging incoming refs via
//                                their remembered sets); build the mixed
//                                collection candidate list
//   mixed pauses               — young + highest-garbage old regions,
//                                bounded by the pause-time model
#pragma once

#include <vector>

#include "gc/concurrent_cycle.h"
#include "heap/arena.h"
#include "heap/block_offset_table.h"
#include "heap/card_table.h"
#include "heap/mark_bitmap.h"
#include "heap/region.h"
#include "runtime/collector.h"
#include "runtime/vm_config.h"
#include "support/spinlock.h"

namespace mgc {

class G1Gc final : public Collector {
 public:
  G1Gc(Vm& vm, const VmConfig& cfg);

  GcKind kind() const override { return GcKind::kG1; }

  char* alloc_tlab(std::size_t bytes) override;
  Obj* alloc_direct(std::size_t size_words, std::uint16_t num_refs) override;

  PauseOutcome collect_young(GcCause cause) override;
  PauseOutcome collect_full(GcCause cause) override;

  HeapUsage usage() const override;
  bool contains(const void* p) const override { return rm_.contains(p); }
  BarrierDescriptor barrier_descriptor() override;
  // Optimistic ceiling: a humongous allocation spanning every region. No
  // expansion support (try_expand stays false — the region count is fixed).
  std::size_t max_alloc_bytes() const override {
    return rm_.num_regions() * rm_.region_bytes();
  }

  void start_background() override;
  void stop_background() override;
  void maybe_start_concurrent() override;
  void satb_record(Mutator& m, Obj* old_value) override;
  void rset_record(void* slot_addr, Obj* value) override;

  // Introspection for tests, benches and the heap verifier.
  RegionManager& regions() { return rm_; }
  CardTable& card_table() { return cards_; }
  bool cycle_active() const { return cycle_.active(); }
  std::uint64_t cycles_completed() const { return cycle_.completed(); }
  std::uint64_t mixed_pauses() const {
    return mixed_pauses_.load(std::memory_order_acquire);
  }
  std::uint64_t evacuation_failures() const {
    return evac_failures_.load(std::memory_order_acquire);
  }

 private:
  friend struct G1EvacShared;

  // Allocation.
  char* young_alloc_locked(std::size_t bytes);
  std::size_t eden_quota() const;

  // Pauses.
  PauseOutcome evacuate_pause(GcCause cause, bool initial_mark);
  void run_cycle();
  PauseOutcome do_remark();
  PauseOutcome do_cleanup();
  void setup_marking_in_pause();
  void handle_failed_region(Region* r);
  // Adds o's cross-region references to their targets' remembered sets.
  void record_rsets(Obj* o);
  bool wanted_rset_card(std::uint32_t card_idx);
  void purge_refs_into(Region* dying);
  // Returns `r` to the free list with its BOT entries cleared; a humongous
  // head takes its continuation regions with it.
  void release(Region* r);
  void mark_old_target(Obj* t);
  void scan_cell_refs(Obj* cell);

  Vm& vm_;
  VmConfig cfg_;
  Arena arena_;
  RegionManager rm_;
  CardTable cards_;
  BlockOffsetTable bot_;
  MarkBitmap bits_;
  unsigned region_shift_;

  // Guards the young-generation allocation path; ranked below the region
  // manager's free-list lock, which allocate_region takes underneath it.
  SpinLock alloc_lock_{LockRank::kEvacAlloc, "g1-alloc"};
  Region* mutator_region_ = nullptr;
  std::vector<Region*> eden_regions_;
  std::vector<Region*> survivor_regions_;
  std::size_t max_young_regions_;

  std::atomic<bool> satb_active_{false};
  SpinLock satb_lock_{LockRank::kSatb, "g1-satb"};
  std::vector<Obj*> satb_buffer_ MGC_GUARDED_BY(satb_lock_);

  ConcurrentCycle cycle_;

  std::vector<std::uint32_t> mixed_candidates_;
  // Read by mutators (maybe_start_concurrent); written inside pauses.
  std::atomic<bool> mixed_pending_{false};

  // Pause-time model: EMA of seconds per evacuated byte.
  double secs_per_byte_ = 2e-9;

  std::atomic<std::uint64_t> mixed_pauses_{0};
  std::atomic<std::uint64_t> evac_failures_{0};
};

}  // namespace mgc
