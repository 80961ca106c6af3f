// WorkSet: offer-termination over generated task trees. Every drain must
// return, and every task must be processed exactly once, with 1, 2 and 4
// workers, with tasks reached from several parents (claimed by CAS, like an
// object's forwarding pointer), with tasks that re-push themselves (like a
// self-forwarded object on promotion failure), and with a worker that
// starts late holding the only seed work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "gc/parallel_work.h"
#include "support/rng.h"

namespace mgc {
namespace {

// A DAG of tasks: node 0..roots-1 are seeds, every other node has one or
// more parents. A node is pushed only by the parent that wins its claim.
struct TaskGraph {
  std::vector<std::vector<std::uint32_t>> children;
  std::vector<bool> repush;  // processed twice: claim + re-push, then scan
  std::uint32_t roots = 0;

  static TaskGraph generate(std::uint64_t seed, std::uint32_t nodes,
                            std::uint32_t roots) {
    TaskGraph g;
    g.roots = roots;
    g.children.resize(nodes);
    g.repush.resize(nodes);
    Rng rng(seed);
    for (std::uint32_t i = roots; i < nodes; ++i) {
      // A random earlier node is the tree parent; a second random earlier
      // node sometimes shares the child, so claims race.
      g.children[rng.below(i)].push_back(i);
      if (rng.below(4) == 0) g.children[rng.below(i)].push_back(i);
    }
    for (std::uint32_t i = 0; i < nodes; ++i) {
      g.repush[i] = rng.below(16) == 0;
    }
    return g;
  }
};

struct DrainRun {
  const TaskGraph& graph;
  WorkSet<std::uint32_t> work;
  // 0 = unclaimed, 1 = claimed (and for re-push nodes: re-pushed),
  // 2 = re-push node scanned.
  std::unique_ptr<std::atomic<int>[]> state;
  std::unique_ptr<std::atomic<int>[]> processed;

  DrainRun(const TaskGraph& g, int workers)
      : graph(g),
        work(workers),
        state(new std::atomic<int>[g.children.size()]),
        processed(new std::atomic<int>[g.children.size()]) {
    for (std::size_t i = 0; i < g.children.size(); ++i) {
      state[i].store(0);
      processed[i].store(0);
    }
  }

  // The claim a parent makes before pushing a child.
  bool claim(std::uint32_t node) {
    int expected = 0;
    return state[node].compare_exchange_strong(expected, 1);
  }

  void process(int w, std::uint32_t node) {
    processed[node].fetch_add(1, std::memory_order_relaxed);
    if (graph.repush[node]) {
      int expected = 1;
      if (state[node].compare_exchange_strong(expected, 2)) {
        work.push(w, node);  // second visit scans the children
        return;
      }
    }
    for (std::uint32_t c : graph.children[node]) {
      if (claim(c)) work.push(w, c);
    }
  }

  void drain(int w) {
    work.drain(w, [&](std::uint32_t node) { process(w, node); });
  }

  void expect_each_processed_once() const {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < graph.children.size(); ++i) {
      const int want = graph.repush[i] ? 2 : 1;
      if (processed[i].load() != want) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << "tasks processed a wrong number of times";
  }
};

// Runs `body(w)` on `workers` threads and requires all of them to return
// within the deadline; a drain that never terminates aborts the binary
// (its threads cannot be joined), which the test runner reports.
template <typename Body>
void run_workers(int workers, Body&& body) {
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      body(w);
      returned.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (returned.load() < workers) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "WorkSet: %d of %d drains never returned\n",
                   workers - returned.load(), workers);
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) t.join();
}

class WorkSetDrain : public ::testing::TestWithParam<int> {};

TEST_P(WorkSetDrain, SeedsSpreadRoundRobinProcessEveryTaskOnce) {
  const int workers = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskGraph g = TaskGraph::generate(seed, 20000, 64);
    DrainRun run(g, workers);
    // Seeded before the phase starts, as parallel marking does.
    for (std::uint32_t r = 0; r < g.roots; ++r) {
      if (run.claim(r)) run.work.push(static_cast<int>(r) % workers, r);
    }
    run_workers(workers, [&](int w) { run.drain(w); });
    run.expect_each_processed_once();
    if (workers == 1) {
      EXPECT_EQ(run.work.steals(), 0u);
    }
    EXPECT_GE(run.work.max_termination_ns(), 0);
  }
}

TEST_P(WorkSetDrain, IdleWorkersWaitForALateWorkerWithTheOnlySeeds) {
  const int workers = GetParam();
  const TaskGraph g = TaskGraph::generate(99, 20000, 8);
  DrainRun run(g, workers);
  // Worker 0 finds the seeds itself (a root scan) after a delay, while the
  // others are already in drain() with nothing to do: they must neither
  // terminate early nor miss the work.
  run_workers(workers, [&](int w) {
    if (w == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (std::uint32_t r = 0; r < g.roots; ++r) {
        if (run.claim(r)) run.work.push(0, r);
      }
    }
    run.drain(w);
  });
  run.expect_each_processed_once();
}

TEST_P(WorkSetDrain, SlowTasksStillTerminateExactly) {
  const int workers = GetParam();
  const TaskGraph g = TaskGraph::generate(7, 3000, 4);
  DrainRun run(g, workers);
  for (std::uint32_t r = 0; r < g.roots; ++r) {
    if (run.claim(r)) run.work.push(static_cast<int>(r) % workers, r);
  }
  // Every 64th task is slow, so idle workers pass the spin phase and
  // yield before work reappears.
  run_workers(workers, [&](int w) {
    run.work.drain(w, [&](std::uint32_t node) {
      if (node % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      run.process(w, node);
    });
  });
  run.expect_each_processed_once();
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkSetDrain, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "workers";
                         });

}  // namespace
}  // namespace mgc
