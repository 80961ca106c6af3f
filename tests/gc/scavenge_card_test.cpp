// The scavenger's card-table invariant: every old->young slot sits on a
// dirty card after a young pause. The card holding the old generation's
// pre-pause top used to be both strip-scanned and promoted into, so one
// worker's clear could land after another worker had dirtied that card for
// an object it promoted there, and the mark was lost (the verifier then
// reported an old->young reference on a clean card).
#include <gtest/gtest.h>

#include "dacapo/workload.h"
#include "gc/classic_collector.h"
#include "runtime/heap_verifier.h"
#include "runtime/vm.h"
#include "support/fault.h"
#include "support/units.h"

namespace mgc {
namespace {

class ContiguousOldGen : public ::testing::TestWithParam<GcKind> {};

// Deterministic: the first young pause after the old top was left in the
// middle of a card must start its promotions on the next card, behind a
// filler that owns the rest of the boundary card.
TEST_P(ContiguousOldGen, PromotionNeverLandsOnTheScannedBoundaryCard) {
  VmConfig cfg;
  cfg.gc = GetParam();
  cfg.heap_bytes = 16 * MiB;
  cfg.young_bytes = 4 * MiB;
  cfg.gc_threads = 2;
  cfg.tenuring_threshold = 0;  // every survivor is promoted
  Vm vm(cfg);
  ClassicHeap& heap = static_cast<ClassicCollector&>(vm.collector()).heap();
  CardTable& cards = heap.cards();
  Vm::MutatorScope scope(vm, "t");
  Mutator& m = scope.mutator();

  // An object too big for the eden goes straight to the old generation;
  // size it so the old top ends half-way into a card.
  const std::size_t big_min = heap.eden().capacity() / 2 + 1024;
  const auto top0 = reinterpret_cast<std::size_t>(heap.old_space().top());
  const std::size_t big_bytes =
      big_min + (kCardSize - (top0 + big_min) % kCardSize) + kCardSize / 2;
  Local big(m, m.alloc(0, big_bytes / kWordSize - kHeaderWords));
  ASSERT_TRUE(heap.in_old(big.get()));
  char* const top_before = heap.old_space().top();
  const std::size_t boundary_card = cards.index_of(top_before);
  ASSERT_NE(cards.card_base(boundary_card), top_before);

  // Young survivors, each referencing the next: promoted in the pause.
  Local head(m);
  for (int i = 0; i < 200; ++i) {
    Local node(m, m.alloc(1, 6));
    m.set_ref(node.get(), 0, head.get());
    head.set(node.get());
  }
  const std::size_t pauses = vm.gc_log().count();
  vm.collect(&m, /*full=*/false, GcCause::kAllocFailure);
  ASSERT_GT(vm.gc_log().count(), pauses);
  ASSERT_TRUE(heap.in_old(head.get())) << "nothing was promoted";

  auto* first = reinterpret_cast<Obj*>(top_before);
  EXPECT_TRUE(first->is_filler());
  EXPECT_EQ(first->num_refs(), 0u);
  EXPECT_EQ(first->end(), cards.card_end(boundary_card));
  EXPECT_GE(reinterpret_cast<char*>(head.get()),
            cards.card_end(boundary_card));
  const VerifyReport rep = verify_heap(vm);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

INSTANTIATE_TEST_SUITE_P(
    Scavenge, ContiguousOldGen,
    ::testing::Values(GcKind::kSerial, GcKind::kParNew, GcKind::kParallel,
                      GcKind::kParallelOld),
    [](const ::testing::TestParamInfo<GcKind>& info) {
      return std::string(gc_traits(info.param).short_name);
    });

// The workload the lost mark was first seen on: xalan under ParNew, with
// stalled workers staggering who scans which strip when. Timing-dependent
// on a broken tree, clean on a fixed one.
TEST(ScavengeCards, XalanUnderParNewWithStalledWorkersStaysVerifierClean) {
  const fault::ScopedFault stall(fault::Site::kGcWorkerStall,
                                 fault::Policy{.probability = 0.25});
  Vm vm(VmConfig::baseline(GcKind::kParNew));
  std::unique_ptr<dacapo::Benchmark> bench = dacapo::make_benchmark("xalan");
  bench->setup(vm, 1410);
  for (int it = 0; it < 30; ++it) {
    bench->run_iteration(vm, 2, 1410 + static_cast<std::uint64_t>(it) * 7919);
  }
  Vm::MutatorScope scope(vm, "verify");
  const VerifyReport rep = verify_heap_at_safepoint(scope.mutator());
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
}

}  // namespace
}  // namespace mgc
