// VM configuration: the knobs the paper varies (collector, heap size, young
// generation size, TLAB) plus collector tuning constants at their HotSpot
// defaults. All sizes are in *scaled* bytes (see support/units.h).
#pragma once

#include <cstddef>
#include <string>

#include "runtime/gc_kind.h"
#include "support/units.h"

namespace mgc {

struct VmConfig {
  GcKind gc = GcKind::kParallelOld;

  // Paper baseline: ~16 GB fixed heap, ~5.6 GB young generation, TLAB on.
  std::size_t heap_bytes = 16 * scale::GB;
  std::size_t young_bytes = 5734 * scale::MB;  // ~5.6 GB

  // Extra reservation beyond heap_bytes that the allocation ladder may
  // commit to the old generation under pressure (the heap-expand rung).
  // 0 = fixed-size heap, the paper's measurement configuration.
  std::size_t heap_reserve_bytes = 0;

  bool tlab_enabled = true;
  std::size_t tlab_bytes = 16 * KiB;  // initial (and fixed, if !adaptive) size

  // Adaptive TLAB sizing (HotSpot's ResizeTLAB analogue): each mutator
  // resizes its TLAB from an EWMA of its allocation volume per young
  // cycle, targeting ~tlab_refill_target refills per cycle, clamped to
  // [min_tlab_bytes, eden / live mutators].
  bool tlab_adaptive = true;
  std::size_t min_tlab_bytes = 1 * KiB;
  int tlab_refill_target = 50;

  // 0 = default: min(hardware threads, 8).
  int gc_threads = 0;

  // Generational tuning (HotSpot defaults).
  int tenuring_threshold = 6;
  int survivor_ratio = 8;  // eden : survivor = 8 : 1 : 1

  // CMS: background cycle starts above this old-gen occupancy.
  double cms_trigger_occupancy = 0.70;

  // G1.
  std::size_t g1_region_bytes = 256 * KiB;
  // Initiating heap occupancy: a marking cycle starts once old + humongous
  // regions fill this share of the heap (eden does not count, as in
  // HotSpot's need_to_start_conc_mark).
  double g1_ihop = 0.45;
  double g1_pause_target_ms = 5.0; // scaled analogue of -XX:MaxGCPauseMillis
  double g1_mixed_garbage_threshold = 0.15;  // skip old regions with less garbage

  bool verbose_gc = false;

  // The paper's default configuration for a given collector.
  static VmConfig baseline(GcKind gc);

  // Derived geometry.
  std::size_t eden_bytes() const;
  std::size_t survivor_bytes() const;
  std::size_t old_bytes() const { return heap_bytes - young_bytes; }
  int effective_gc_threads() const;

  // Aborts on nonsensical configurations (young >= heap, tiny spaces, ...).
  void validate() const;

  std::string describe() const;
};

}  // namespace mgc
