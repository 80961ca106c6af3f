// G1-specific behaviour: region accounting, remembered-set filtering,
// mixed collections reclaiming old garbage, full-GC region rebuild, and
// forced evacuation failure recovery.
#include <gtest/gtest.h>

#include "gc/g1_gc.h"
#include "runtime/heap_verifier.h"
#include "runtime/managed.h"
#include "runtime/vm.h"
#include "support/units.h"

namespace mgc {
namespace {

VmConfig g1_config(std::size_t heap_mb, std::size_t young_mb) {
  VmConfig cfg;
  cfg.gc = GcKind::kG1;
  cfg.heap_bytes = heap_mb * MiB;
  cfg.young_bytes = young_mb * MiB;
  cfg.g1_region_bytes = 128 * KiB;
  cfg.gc_threads = 2;
  return cfg;
}

TEST(G1, YoungCollectionRecyclesEdenRegions) {
  Vm vm(g1_config(16, 4));
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  const std::size_t free_before = g1.regions().free_region_count();
  for (int i = 0; i < 30000; ++i) {
    Local junk(m, m.alloc(1, 12));
    (void)junk;
  }
  m.system_gc();
  // Nothing retained: (almost) every region must be free again.
  EXPECT_GE(g1.regions().free_region_count() + 2, free_before);
  EXPECT_GT(vm.gc_log().count(), 0u);
}

TEST(G1, MixedCollectionsReclaimOldGarbage) {
  VmConfig cfg = g1_config(8, 2);
  cfg.g1_ihop = 0.15;
  cfg.tenuring_threshold = 1;  // promote aggressively: old-gen churn
  Vm vm(cfg);
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  const std::size_t root = vm.create_global_root();
  {
    Vm::MutatorScope s(vm, "init");
    vm.set_global_root(root, managed::hash_map::create(s.mutator(), 512));
  }
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  // Interleave persistent and transient promotions so old regions end up
  // *partially* garbage: fully-dead regions are reclaimed for free at
  // cleanup, but mixed pauses are the only way to get these back. Regions
  // filled during a marking cycle are implicitly live until the next
  // cycle's cleanup (above-TAMS rule), so candidates need a few cycles.
  auto churn = [&](int from, int n, int window, std::size_t payload) {
    for (int i = from; i < from + n; ++i) {
      Local v(m, m.alloc(1, payload));
      v->set_field(0, static_cast<word_t>(i));
      Local map(m, vm.global_root(root));
      // Every 4th insertion is permanent; the rest rotate through a window.
      const std::uint64_t key =
          i % 4 == 0 ? 100000 + static_cast<std::uint64_t>(i % 1200)
                     : static_cast<std::uint64_t>(i % window);
      managed::hash_map::put(m, map, key, v);
    }
  };
  churn(0, 250000, 2000, 24);
  // A candidate needs a cleanup to observe an old region *partially*
  // garbage, but a fixed rotation window can phase-lock with the cleanup
  // cadence so regions are only ever seen fully live or fully dead (the
  // latter are freed for free and never become candidates). Retry in
  // bounded batches with a shifted window and payload size to break the
  // lock-in instead of asserting on one fixed allocation pattern.
  int next = 250000;
  for (int batch = 0; g1.mixed_pauses() == 0 && batch < 50; ++batch) {
    churn(next, 25000, 2000 + 977 * (batch % 7), 24 + 16 * (batch % 3));
    next += 25000;
  }
  EXPECT_GE(g1.cycles_completed(), 1u);
  EXPECT_GE(g1.mixed_pauses(), 1u) << "no mixed collection ever ran";
  const VerifyReport rep = verify_heap(vm);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

std::size_t pauses_of_kind(const Vm& vm, PauseKind kind) {
  std::size_t n = 0;
  for (const PauseEvent& e : vm.gc_log().snapshot()) n += e.kind == kind;
  return n;
}

// HotSpot's initiating-occupancy test counts old and humongous regions
// only: eden far above the threshold is emptied by the next young pause
// and must not start a marking cycle.
TEST(G1Ihop, EdenOnlyOccupancyAboveIhopStartsNoCycle) {
  VmConfig cfg = g1_config(16, 8);
  cfg.g1_ihop = 0.10;
  Vm vm(cfg);
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  const double threshold =
      cfg.g1_ihop * static_cast<double>(g1.usage().capacity);
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  std::size_t peak_young = 0;
  for (int i = 0; i < 200000; ++i) {
    Local junk(m, m.alloc(1, 12));
    if (i % 512 == 0) {
      peak_young = std::max(peak_young, g1.usage().young_used);
    }
  }
  ASSERT_GT(static_cast<double>(peak_young), threshold)
      << "eden never crossed the threshold; the test proves nothing";
  EXPECT_LT(static_cast<double>(g1.usage().old_used), threshold);
  EXPECT_GT(pauses_of_kind(vm, PauseKind::kYoungGc), 0u);
  EXPECT_EQ(pauses_of_kind(vm, PauseKind::kInitialMark), 0u);
  EXPECT_EQ(g1.cycles_completed(), 0u);
}

TEST(G1Ihop, OldOccupancyAboveIhopStartsACycle) {
  VmConfig cfg = g1_config(16, 2);
  cfg.g1_ihop = 0.10;
  Vm vm(cfg);
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  const double threshold =
      cfg.g1_ihop * static_cast<double>(g1.usage().capacity);
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  // ~3 MB of 1 KB nodes, compacted into old regions by a full collection.
  Local keep(m, managed::ref_array::create(m, 3000));
  for (std::size_t i = 0; i < 3000; ++i) {
    Local node(m, m.alloc(0, 126));
    managed::ref_array::set(m, keep.get(), i, node.get());
  }
  m.system_gc();
  ASSERT_GT(static_cast<double>(g1.usage().old_used), threshold);
  // Allocation slow paths now see the old generation above the threshold.
  for (int i = 0; i < 400000 && g1.cycles_completed() == 0; ++i) {
    Local junk(m, m.alloc(1, 12));
  }
  EXPECT_GE(pauses_of_kind(vm, PauseKind::kInitialMark), 1u);
  EXPECT_GE(g1.cycles_completed(), 1u) << "no marking cycle completed";
}

TEST(G1, EvacuationFailureRecoversAndHeapStaysSound) {
  // Tiny heap + big live set => evacuation failures (or full-GC
  // escalations) are certain.
  VmConfig cfg = g1_config(3, 1);
  Vm vm(cfg);
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  Local keep(m, managed::ref_array::create(m, 2400));
  try {
    for (std::size_t i = 0; i < 2400; ++i) {
      Local node(m, m.alloc(1, 120));  // ~1 KB each: ~2.4 MB live
      node->set_field(0, i * 3);
      managed::ref_array::set(m, keep.get(), i, node.get());
      Local junk(m, m.alloc(1, 16));
      (void)junk;
    }
  } catch (const OutOfMemoryError&) {
    GTEST_SKIP() << "heap genuinely too small on this run";
  }
  EXPECT_GE(g1.evacuation_failures() + vm.gc_log().summarize().full_pauses,
            1u);
  for (std::size_t i = 0; i < 2400; i += 113) {
    EXPECT_EQ(managed::ref_array::get(keep.get(), i)->field(0), i * 3);
  }
  const VerifyReport rep = verify_heap(vm);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

TEST(G1, HumongousObjectsPinnedAcrossFullGc) {
  Vm vm(g1_config(16, 2));
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  Local big(m, managed::blob::create_zeroed(m, 300 * KiB));
  managed::blob::mutable_data(big.get())[123] = 77;
  Obj* const before = big.get();
  EXPECT_TRUE(before->is_humongous());
  m.system_gc();
  // Humongous objects are pinned: same address, same contents.
  EXPECT_EQ(big.get(), before);
  EXPECT_EQ(managed::blob::data(big.get())[123], 77);
}

TEST(G1, SystemGcCompactsEverythingIntoOldRegions) {
  Vm vm(g1_config(16, 4));
  auto& g1 = static_cast<G1Gc&>(vm.collector());
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();
  Local keep(m, managed::ref_array::create(m, 500));
  for (std::size_t i = 0; i < 500; ++i) {
    Local node(m, m.alloc(0, 8));
    node->set_field(0, i);
    managed::ref_array::set(m, keep.get(), i, node.get());
  }
  m.system_gc();
  // After a full collection the young regions are empty.
  std::size_t young_used = 0;
  g1.regions().for_each_region([&](Region& r) {
    if (r.is_young()) young_used += r.used();
  });
  EXPECT_EQ(young_used, 0u);
  for (std::size_t i = 0; i < 500; i += 37) {
    EXPECT_EQ(managed::ref_array::get(keep.get(), i)->field(0), i);
  }
}

}  // namespace
}  // namespace mgc
