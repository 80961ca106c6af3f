// Stop tests for the background driver the concurrent collectors share
// (ConcurrentCycle): it must stop promptly with a cycle request pending and
// in the middle of a cycle, a request after stop() must start nothing, and
// the heap verifier must stay clean throughout. Checked on the driver
// alone (deterministically) and through a CMS and a G1 Vm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "gc/cms_gc.h"
#include "gc/concurrent_cycle.h"
#include "gc/g1_gc.h"
#include "runtime/heap_verifier.h"
#include "runtime/managed.h"
#include "runtime/vm.h"
#include "support/units.h"

namespace mgc {
namespace {

// Runs `fn` on its own thread and requires it to return within the
// deadline; a stop that never returns cannot be joined, so it aborts the
// binary, which the test runner reports.
template <typename Fn>
void within_watchdog(const char* what, Fn fn) {
  std::atomic<bool> done{false};
  std::thread t([&] {
    fn();
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "%s did not return within 30 s\n", what);
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.join();
}

TEST(ConcurrentCycleStop, RequestPendingAtStopAndAfterStopStartsNothing) {
  SafepointCoordinator sp;
  GcCostCounters cost;
  ConcurrentCycle cycle(sp, cost);
  std::atomic<int> bodies{0};
  cycle.launch([&] {
    bodies.fetch_add(1);
    while (cycle.checkpoint()) std::this_thread::yield();
  });
  cycle.request();
  while (bodies.load() == 0) std::this_thread::yield();
  // The thread is busy in the first cycle: this request stays pending
  // until the stop ends that cycle, and must then be dropped.
  cycle.request();
  within_watchdog("ConcurrentCycle::stop", [&] { cycle.stop(); });
  EXPECT_TRUE(cycle.aborted());
  cycle.request();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(bodies.load(), 1);
  within_watchdog("second ConcurrentCycle::stop", [&] { cycle.stop(); });
}

class BackgroundStop : public ::testing::TestWithParam<GcKind> {
 protected:
  // Cycles are wanted at any occupancy.
  static std::unique_ptr<Vm> make_vm() {
    VmConfig cfg;
    cfg.gc = GetParam();
    cfg.heap_bytes = 32 * MiB;
    cfg.young_bytes = 4 * MiB;
    cfg.gc_threads = 2;
    cfg.cms_trigger_occupancy = 0.0;
    cfg.g1_ihop = 0.0;
    return std::make_unique<Vm>(cfg);
  }
  static bool cycle_active(Vm& vm) {
    return GetParam() == GcKind::kCms
               ? static_cast<CmsGc&>(vm.collector()).cycle_active()
               : static_cast<G1Gc&>(vm.collector()).cycle_active();
  }
  static std::uint64_t cycles_completed(Vm& vm) {
    return GetParam() == GcKind::kCms
               ? static_cast<CmsGc&>(vm.collector()).cycles_completed()
               : static_cast<G1Gc&>(vm.collector()).cycles_completed();
  }
  // A linked list of `n` nodes under a new global root, compacted into the
  // old generation so concurrent marking has to trace all of it.
  static void build_old_chain(Vm& vm, int n) {
    const std::size_t root = vm.create_global_root();
    Vm::MutatorScope s(vm, "chain");
    Mutator& m = s.mutator();
    Local head(m);
    for (int i = 0; i < n; ++i) {
      Local node(m, m.alloc(1, 2));
      node->set_field(0, static_cast<word_t>(i));
      node.set_ref(0, head);
      head.set(node.get());
    }
    vm.set_global_root(root, head.get());
    m.system_gc();
    EXPECT_TRUE(verify_heap_at_safepoint(m).ok());
  }
  static void expect_verifier_clean(Vm& vm) {
    Vm::MutatorScope s(vm, "verify");
    const VerifyReport rep = verify_heap_at_safepoint(s.mutator());
    EXPECT_TRUE(rep.ok()) << (rep.ok() ? "" : rep.problems.front());
  }
};

TEST_P(BackgroundStop, DestroyWithACycleRequestedButNotStarted) {
  // The stop races the wake-up: over the iterations the thread sees the
  // request first (and bails from the cycle at its first checkpoint) or
  // the stop first (and never starts it). Both must return.
  for (int i = 0; i < 10; ++i) {
    std::unique_ptr<Vm> vm = make_vm();
    build_old_chain(*vm, 2000);
    vm->collector().maybe_start_concurrent();
    within_watchdog("~Vm with a pending request", [&] { vm.reset(); });
  }
}

TEST_P(BackgroundStop, DestroyDuringConcurrentMarking) {
  std::unique_ptr<Vm> vm = make_vm();
  build_old_chain(*vm, 150000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!cycle_active(*vm)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no concurrent cycle started";
    vm->collector().maybe_start_concurrent();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  expect_verifier_clean(*vm);
  within_watchdog("~Vm during marking", [&] { vm.reset(); });
}

TEST_P(BackgroundStop, RequestAfterStopStartsNothing) {
  std::unique_ptr<Vm> vm = make_vm();
  build_old_chain(*vm, 2000);
  within_watchdog("stop_background", [&] { vm->collector().stop_background(); });
  const std::uint64_t completed = cycles_completed(*vm);
  const std::uint64_t charged =
      vm->cost_counters().snapshot(vm->gc_log()).concurrent_cycles;
  vm->collector().maybe_start_concurrent();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cycles_completed(*vm), completed);
  EXPECT_EQ(vm->cost_counters().snapshot(vm->gc_log()).concurrent_cycles,
            charged);
  expect_verifier_clean(*vm);
  within_watchdog("~Vm after stop", [&] { vm.reset(); });
}

INSTANTIATE_TEST_SUITE_P(Concurrent, BackgroundStop,
                         ::testing::Values(GcKind::kCms, GcKind::kG1),
                         [](const auto& info) {
                           return info.param == GcKind::kCms ? "CMS" : "G1";
                         });

}  // namespace
}  // namespace mgc
