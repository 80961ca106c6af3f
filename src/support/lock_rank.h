// Runtime lock-rank registry.
//
// Every long-lived lock in the runtime carries a LockRank: its position
// in the global acquisition order. The rule is HotSpot's: a thread may
// only acquire a lock whose rank is STRICTLY GREATER than every ranked
// lock it already holds. Two exceptions, both deliberate:
//
//   * same-rank ranks flagged below (the memtable stripes) may nest with
//     themselves as long as the lock addresses ascend — AllStripesLock
//     walks the stripe array in index (= address) order;
//   * a successful try_lock records the lock as held but is exempt from
//     the ordering check — a try_lock that would invert the order simply
//     fails instead of deadlocking (the commit log's memory-pressure
//     hook relies on this).
//
// Unranked locks (tests, short-lived scratch state) never touch the
// registry. Validation itself is off by default in release builds — each
// acquire then costs one relaxed atomic load and a branch — and on by
// default in debug (!NDEBUG) builds; MGC_LOCK_RANK=1/0 overrides either
// way. Violations die loudly with both lock names and the full held
// stack: a rank bug is a latent deadlock, never something to limp past.
//
// The same table drives tools/gclint's static lock-order pass: gclint
// parses this header for the rank values and the lock declarations for
// their ranks, so the static and runtime checkers cannot drift apart.
#pragma once

#include <cstdint>

namespace mgc {

// Acquisition order: a thread holding rank r may only acquire ranks > r.
// Outermost (coarsest, taken first) ranks are lowest. Gaps of 10 leave
// room to slot new locks without renumbering.
enum class LockRank : std::uint16_t {
  kUnranked = 0,        // not tracked; never registered
  // front-end shutdown paths (outermost: taken with nothing held)
  kNetShutdown = 10,    // net::NetServer shutdown_mu_
  kKvShutdown = 20,     // kv::Server shutdown_mu_
  kKvShard = 30,        // kv::Server per-shard queue mutex
  kAppData = 40,        // dacapo kernel table/store mutexes
  // replication (between the kv front-end and the storage layers: the
  // pump takes repl-state, then repl-log, then — with neither held — the
  // store path below; the Store::put commit hook takes repl-log alone)
  kReplState = 44,      // repl::Node state_mu_ (role/term/pending writes)
  kReplLog = 46,        // repl::ReplLog mu_ (per-shard entry vectors)
  // kvstore storage layers
  kStoreFlush = 50,     // kv::Store flush_mu_
  kCommitLog = 60,      // kv::CommitLog mu_ (replay puts rows under it)
  kMemtableStripe = 70, // kv::Memtable stripes; same-rank ascending allowed
  kSsTable = 80,        // kv::SsTableSet mu_
  // runtime
  kVmPressure = 90,     // Vm pressure_mu_
  kVmOps = 100,         // Vm ops_mu_ (VM-op queue)
  kVmMutators = 110,    // Vm mutators_mu_
  kVmGlobalRoots = 120, // Vm groots_mu_ (taken under the commit-log lock)
  kSafepoint = 130,     // SafepointCoordinator mu_ (leave_blocked nests
                        // inside every GuardedLock-wrapped mutex)
  kGcWorkerPool = 140,  // GcWorkerPool mu_
  kGcBackground = 150,  // ConcurrentCycle mu_ (the CMS/G1 background thread)
  kGcLog = 160,         // GcLog mu_ (taken under mutators_mu_)
  kGcBarrier = 170,     // SenseBarrier mu_
  // heap / pause internals (innermost spinlocks)
  kEvacAlloc = 180,     // G1 alloc_lock_, evacuation DestAlloc locks
  kRegionFree = 190,    // RegionManager free-list lock (under kEvacAlloc)
  kFreeListSpace = 195, // FreeListSpace allocation lock
  kSatb = 200,          // G1 SATB buffer lock
  kRemSet = 210,        // RememberedSet lock
  kPromotedList = 220,  // scavenge promoted-list flush lock
  // leaves that may be reached from almost anywhere
  kFault = 230,         // fault-injection slow-path g_mu
  kNetSink = 250,       // net completion sink
};

namespace lockrank {

// True when acquisition-order validation is on. One relaxed load.
bool enabled();
// Programmatic override (tests; death tests turn validation on in
// release builds). Affects subsequent acquisitions process-wide.
void set_enabled(bool on);

const char* rank_name(LockRank r);

// Called by Mutex/SpinLock around the underlying lock operations.
// note_acquire validates (unless `trylock`) and pushes onto the calling
// thread's held stack; note_release pops (any position — condition-wait
// re-lock patterns can release out of stack order). Both are no-ops for
// kUnranked and when validation is disabled.
void note_acquire(const void* lock, LockRank r, const char* name,
                  bool trylock);
void note_release(const void* lock, LockRank r);

// Number of ranked locks the calling thread currently holds (tests).
int held_count();

}  // namespace lockrank
}  // namespace mgc
