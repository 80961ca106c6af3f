// Stress tests for the concurrent collectors: background cycles must run
// to completion while mutators rewire a long-lived graph, and the graph
// must stay intact through initial-mark/remark/sweep (CMS) and
// initial-mark/remark/cleanup/mixed (G1), including concurrent mode
// failures and evacuation failures.
#include <gtest/gtest.h>

#include <functional>

#include "gc/cms_gc.h"
#include "gc/g1_gc.h"
#include "runtime/managed.h"
#include "runtime/vm.h"
#include "support/fault.h"
#include "support/units.h"

namespace mgc {
namespace {

// Mutator kernel: keeps a rotating window of medium-lived blobs inside a
// managed hash map (constant churn of old-gen data) plus young garbage.
// `step`, if given, runs after every iteration.
void churn(Vm& vm, std::size_t map_root, int thread_idx, int iters,
           std::size_t window, const std::function<void()>& step = {}) {
  Vm::MutatorScope scope(vm, "churn-" + std::to_string(thread_idx));
  Mutator& m = scope.mutator();
  for (int i = 0; i < iters; ++i) {
    const auto key = static_cast<std::uint64_t>(thread_idx) * (1ULL << 32) +
                     static_cast<std::uint64_t>(i) % window;
    Local value(m, m.alloc(1, 24));
    value->set_field(0, key * 7);
    Local map(m, vm.global_root(map_root));
    managed::hash_map::put(m, map, key, value);
    Local junk(m, m.alloc(2, 6));
    (void)junk;
    if (step) step();
  }
}

TEST(CmsCycle, BackgroundCycleCompletesAndPreservesData) {
  VmConfig cfg;
  cfg.gc = GcKind::kCms;
  cfg.heap_bytes = 12 * MiB;
  cfg.young_bytes = 2 * MiB;
  cfg.gc_threads = 4;
  cfg.cms_trigger_occupancy = 0.10;  // cycle early and often
  Vm vm(cfg);
  const std::size_t root = vm.create_global_root();
  {
    Vm::MutatorScope s(vm, "init");
    vm.set_global_root(root, managed::hash_map::create(s.mutator(), 1024));
  }

  churn(vm, root, 0, 60000, 4000);

  auto& cms = static_cast<CmsGc&>(vm.collector());
  EXPECT_GE(cms.cycles_completed(), 1u) << "no CMS background cycle ran";

  Vm::MutatorScope s(vm, "verify");
  Obj* map = vm.global_root(root);
  for (std::uint64_t k = 0; k < 4000; k += 13) {
    Obj* v = managed::hash_map::get(map, k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->field(0), k * 7);
  }
}

TEST(CmsCycle, ConcurrentModeFailureRecovers) {
  VmConfig cfg;
  cfg.gc = GcKind::kCms;
  cfg.heap_bytes = 4 * MiB;
  cfg.young_bytes = 1 * MiB;
  cfg.gc_threads = 2;
  cfg.cms_trigger_occupancy = 0.05;
  Vm vm(cfg);
  const std::size_t root = vm.create_global_root();
  {
    Vm::MutatorScope s(vm, "init");
    vm.set_global_root(root, managed::hash_map::create(s.mutator(), 512));
  }
  // Tight heap (live window ~2.2 MB vs ~3 MB old gen) + rapid promotion.
  // Whether the free list runs out mid-cycle depends on how fast the
  // background sweep runs, so the failure is forced: once a cycle is
  // active, the next young pause's first copy fails, and the promotion
  // failure must escalate to a full collection that keeps the data.
  auto& cms = static_cast<CmsGc&>(vm.collector());
  fault::disarm_all();
  bool armed = false;
  churn(vm, root, 0, 60000, 8000, [&] {
    if (!armed && cms.cycle_active()) {
      fault::Policy p;
      p.limit = 1;
      fault::arm(fault::Site::kPromotionFail, p);
      armed = true;
    }
  });
  fault::disarm_all();
  ASSERT_TRUE(armed) << "no CMS background cycle started";

  Vm::MutatorScope s(vm, "verify");
  Obj* map = vm.global_root(root);
  for (std::uint64_t k = 0; k < 8000; k += 31) {
    Obj* v = managed::hash_map::get(map, k);
    if (v != nullptr) {
      EXPECT_EQ(v->field(0), k * 7);
    }
  }
  // The run must have survived; full collections are expected.
  const auto sum = vm.gc_log().summarize();
  EXPECT_GT(sum.full_pauses, 0u);
}

TEST(G1Cycle, ConcurrentCycleAndMixedCollections) {
  VmConfig cfg;
  cfg.gc = GcKind::kG1;
  cfg.heap_bytes = 16 * MiB;
  cfg.young_bytes = 2 * MiB;
  cfg.g1_region_bytes = 128 * KiB;
  cfg.gc_threads = 4;
  cfg.g1_ihop = 0.10;
  // Marking starts once old + humongous occupancy crosses IHOP, and the
  // window's values die long before the default tenuring age: promote
  // every survivor at its first young pause so the retired values pile
  // up as old garbage.
  cfg.tenuring_threshold = 0;
  Vm vm(cfg);
  const std::size_t root = vm.create_global_root();
  {
    Vm::MutatorScope s(vm, "init");
    vm.set_global_root(root, managed::hash_map::create(s.mutator(), 1024));
  }

  // Rotating window: constantly retires old-gen data so mixed collections
  // have garbage-rich old regions to reclaim.
  churn(vm, root, 0, 80000, 3000);

  auto& g1 = static_cast<G1Gc&>(vm.collector());
  EXPECT_GE(g1.cycles_completed(), 1u) << "no G1 marking cycle completed";

  Vm::MutatorScope s(vm, "verify");
  Obj* map = vm.global_root(root);
  EXPECT_EQ(managed::hash_map::size(map), 3000u);
  for (std::uint64_t k = 0; k < 3000; k += 7) {
    Obj* v = managed::hash_map::get(map, k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->field(0), k * 7);
  }
}

TEST(G1Cycle, HumongousAllocationAndReclamation) {
  VmConfig cfg;
  cfg.gc = GcKind::kG1;
  cfg.heap_bytes = 16 * MiB;
  cfg.young_bytes = 2 * MiB;
  cfg.g1_region_bytes = 128 * KiB;
  cfg.gc_threads = 2;
  cfg.g1_ihop = 0.2;
  Vm vm(cfg);
  Vm::MutatorScope s(vm, "test");
  Mutator& m = s.mutator();

  // Churn humongous blobs: each iteration drops the previous one.
  Local keeper(m);
  for (int i = 0; i < 200; ++i) {
    Obj* blob = managed::blob::create_zeroed(m, 300 * KiB);
    managed::blob::mutable_data(blob)[5] = static_cast<char>(i);
    keeper.set(blob);
    m.poll();
  }
  ASSERT_NE(keeper.get(), nullptr);
  EXPECT_TRUE(keeper.get()->is_humongous());
  EXPECT_EQ(managed::blob::data(keeper.get())[5], static_cast<char>(199));
  // Dead humongous objects must have been reclaimed along the way (via
  // full GCs or cleanup); 200 x 300 KiB >> heap, so survival proves reuse.
}

TEST(G1Cycle, MultiThreadedChurnUnderMarking) {
  VmConfig cfg;
  cfg.gc = GcKind::kG1;
  cfg.heap_bytes = 16 * MiB;
  cfg.young_bytes = 3 * MiB;
  cfg.g1_region_bytes = 128 * KiB;
  cfg.gc_threads = 4;
  cfg.g1_ihop = 0.15;
  Vm vm(cfg);
  const std::size_t root = vm.create_global_root();
  {
    Vm::MutatorScope s(vm, "init");
    vm.set_global_root(root, managed::hash_map::create(s.mutator(), 2048));
  }
  std::mutex mu;
  vm.run_mutators(4, [&](Mutator& m, int idx) {
    for (int i = 0; i < 15000; ++i) {
      const auto key =
          static_cast<std::uint64_t>(idx) * (1ULL << 32) + i % 1500;
      Local value(m, m.alloc(1, 16));
      value->set_field(0, key ^ 0xabcdef);
      {
        GuardedLock<std::mutex> g(m, mu);
        Local map(m, vm.global_root(root));
        managed::hash_map::put(m, map, key, value);
      }
      if (i % 128 == 0) m.poll();
    }
  });
  Vm::MutatorScope s(vm, "verify");
  Obj* map = vm.global_root(root);
  EXPECT_EQ(managed::hash_map::size(map), 4u * 1500u);
  for (int idx = 0; idx < 4; ++idx) {
    for (std::uint64_t i = 0; i < 1500; i += 11) {
      const auto key = static_cast<std::uint64_t>(idx) * (1ULL << 32) + i;
      Obj* v = managed::hash_map::get(map, key);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(v->field(0), key ^ 0xabcdef);
    }
  }
}

}  // namespace
}  // namespace mgc
