#include "support/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/check.h"

namespace mgc::lockrank {

namespace {

// -1 = uninitialized (read MGC_LOCK_RANK / NDEBUG on first use).
std::atomic<int> g_enabled{-1};

int initial_enabled() {
  const char* v = std::getenv("MGC_LOCK_RANK");  // NOLINT(concurrency-mt-unsafe)
  if (v != nullptr && *v != '\0') {
    return (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) ? 0 : 1;
  }
#ifdef NDEBUG
  return 0;
#else
  return 1;
#endif
}

struct Held {
  const void* lock;
  LockRank rank;
  const char* name;
};

// Per-thread stack of ranked locks. Fixed capacity: the deepest legal
// chain (shutdown → shard → store → log → stripe → safepoint → heap
// leaves) is far shorter; AllStripesLock's 16 same-rank stripes are the
// widest single step.
constexpr int kMaxHeld = 64;

struct HeldStack {
  Held slots[kMaxHeld];  // NOLINT(modernize-avoid-c-arrays)
  int depth = 0;
};

thread_local HeldStack t_held;

[[noreturn]] void die(const char* verb, const Held& incoming) {
  std::fprintf(stderr,
               "lock-rank violation: %s %s (rank %u, %p) while holding:\n",
               verb, incoming.name,
               static_cast<unsigned>(incoming.rank), incoming.lock);
  for (int i = t_held.depth - 1; i >= 0; --i) {
    const Held& h = t_held.slots[i];
    std::fprintf(stderr, "  #%d %s (rank %u, %p)\n", i, h.name,
                 static_cast<unsigned>(h.rank), h.lock);
  }
  std::fflush(stderr);
  panic("lock_rank", 0, "lock acquisition order violation");
}

}  // namespace

bool enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = initial_enabled();
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char* rank_name(LockRank r) {
  switch (r) {
    case LockRank::kUnranked: return "unranked";
    case LockRank::kNetShutdown: return "net-shutdown";
    case LockRank::kKvShutdown: return "kv-shutdown";
    case LockRank::kKvShard: return "kv-shard";
    case LockRank::kAppData: return "app-data";
    case LockRank::kReplState: return "repl-state";
    case LockRank::kReplLog: return "repl-log";
    case LockRank::kStoreFlush: return "store-flush";
    case LockRank::kCommitLog: return "commit-log";
    case LockRank::kMemtableStripe: return "memtable-stripe";
    case LockRank::kSsTable: return "sstable";
    case LockRank::kVmPressure: return "vm-pressure";
    case LockRank::kVmOps: return "vm-ops";
    case LockRank::kVmMutators: return "vm-mutators";
    case LockRank::kVmGlobalRoots: return "vm-global-roots";
    case LockRank::kSafepoint: return "safepoint";
    case LockRank::kGcWorkerPool: return "gc-worker-pool";
    case LockRank::kGcBackground: return "gc-background";
    case LockRank::kGcLog: return "gc-log";
    case LockRank::kGcBarrier: return "gc-barrier";
    case LockRank::kEvacAlloc: return "evac-alloc";
    case LockRank::kRegionFree: return "region-free";
    case LockRank::kFreeListSpace: return "free-list-space";
    case LockRank::kSatb: return "satb";
    case LockRank::kRemSet: return "remset";
    case LockRank::kPromotedList: return "promoted-list";
    case LockRank::kFault: return "fault";
    case LockRank::kNetSink: return "net-sink";
  }
  return "?";
}

void note_acquire(const void* lock, LockRank r, const char* name,
                  bool trylock) {
  if (r == LockRank::kUnranked || !enabled()) return;
  HeldStack& hs = t_held;
  const Held incoming{lock, r, name};
  if (!trylock) {
    for (int i = 0; i < hs.depth; ++i) {
      const Held& h = hs.slots[i];
      if (h.rank < r) continue;
      // Same-rank nesting: only the memtable stripes allow it, and only
      // in ascending address order (AllStripesLock's index order).
      if (h.rank == r && r == LockRank::kMemtableStripe && h.lock < lock) {
        continue;
      }
      die("acquiring", incoming);
    }
  }
  if (hs.depth >= kMaxHeld) die("overflow tracking", incoming);
  hs.slots[hs.depth++] = incoming;
}

void note_release(const void* lock, LockRank r) {
  if (r == LockRank::kUnranked || !enabled()) return;
  HeldStack& hs = t_held;
  // Search from the top: releases are almost always LIFO, but condition
  // waits and multi-lock scopes may release out of order.
  for (int i = hs.depth - 1; i >= 0; --i) {
    if (hs.slots[i].lock == lock) {
      for (int j = i; j < hs.depth - 1; ++j) hs.slots[j] = hs.slots[j + 1];
      --hs.depth;
      return;
    }
  }
  // Not found: acquired while validation was off, or the lock is shared
  // across an enable/disable toggle. Ignore rather than die — the stack
  // is best-effort bookkeeping, the ORDER is the invariant.
}

int held_count() { return t_held.depth; }

}  // namespace mgc::lockrank
