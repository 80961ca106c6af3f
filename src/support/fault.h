// Deterministic fault injection.
//
// Every failure-prone operation in the runtime is guarded by a *fault
// site*: a named check point that normally does nothing, but can be armed
// to fail on a seeded, reproducible schedule. Sites cover the heap
// (allocation, TLAB/PLAB refill, expansion refusal), the collectors
// (forced promotion/evacuation failure, CMS concurrent-mode failure,
// stalled parallel workers) and the kv/net front-ends (commit-log write
// failure, full queues, short socket I/O, EPIPE).
//
// Cost model: with nothing armed, a check is a single relaxed atomic load
// and a bit test — cheap enough for pause-critical paths. The decision
// logic only runs once a site's bit is set in the global armed mask.
//
// Determinism: each site keeps a check counter; whether check number `n`
// fires is a pure function of (seed, site, n) plus the site's policy
// (probability / after / limit). Replaying the same spec and seed against
// the same check sequence reproduces the same injected-fault sequence.
//
// Configuration: programmatic (`fault::arm`) or via the environment:
//
//   MGC_FAULT="promotion-fail:after=3:limit=1;net-epipe=0.01"
//   MGC_FAULT_SEED=7
//
// Spec grammar (clauses joined by ';'):
//
//   clause  := site [ '=' probability ] { ':' option }
//   option  := 'after=' N        fire only from check number N on (0-based)
//            | 'limit=' M        fire at most M times
//            | 'oneshot'         shorthand for limit=1
//            | 'scope=' K        fire only at scoped checks with scope K
//                                ('shard=' and 'loop=' are aliases)
//
// A clause with no probability fires on every eligible check.
//
// Scopes: sharded subsystems (per-shard kv queues and commit logs, the
// multi-loop accept path) pass their shard/loop index to the check, so a
// spec like "commitlog-write:shard=2" injects failures into exactly one
// shard while the rest of the fleet stays healthy. A clause without a
// scope matches every check, scoped or not; a scoped clause never matches
// checks from unscoped call sites.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mgc::fault {

enum class Site : std::uint8_t {
  // heap
  kHeapAlloc = 0,    // whole slow-path allocation attempt fails
  kTlabRefill,       // TLAB refill from eden fails
  kPlabRefill,       // GC-worker PLAB refill (survivor/to-space) fails
  kOldAlloc,         // old-gen allocation (promotion target) fails
  kHeapExpand,       // heap expansion request refused
  // gc
  kPromotionFail,    // force promotion failure mid-evacuation (classic)
  kG1EvacFail,       // force G1 to-space exhaustion mid-copy
  kCmsConcurrentFail,// force CMS concurrent-mode failure in a concurrent phase
  kGcWorkerStall,    // simulate a slow/stalled parallel GC worker
  // kvstore
  kCommitLogWrite,   // commit-log append fails (scoped: shard index)
  kKvQueueFull,      // shard request queue reports full (load shed;
                     // scoped: shard index)
  // net
  kNetAccept,        // accept() drops the incoming connection (scoped: loop)
  kNetReadShort,     // recv() capped to 1 byte (short-count)
  kNetWriteShort,    // send() capped to 1 byte (short-count)
  kNetEpipe,         // send() fails as if the peer vanished (EPIPE)
  // replication (scoped: the node id of the node performing the action, so
  // a spec can break exactly one replica while the rest stay healthy)
  kReplAppendDrop,    // leader drops an outgoing append batch to one peer
  kReplAckDrop,       // follower drops its outgoing append/heartbeat ack
  kReplHeartbeatLoss, // leader's outgoing heartbeat to one peer is lost
  kReplFollowerStall, // follower's replication pump skips an iteration
  kNumSites,
};

inline constexpr std::size_t kNumSites =
    static_cast<std::size_t>(Site::kNumSites);

// Scope wildcard: matches every check (and is what unscoped call sites
// pass, so an unscoped policy keeps firing everywhere).
inline constexpr std::uint32_t kScopeAny = 0xFFFFFFFFu;

// Per-site firing policy. All fields are written only while the site is
// disarmed; arming publishes them.
struct Policy {
  double probability = 1.0;          // chance an eligible check fires
  std::uint64_t after = 0;           // first check number that may fire
  std::uint64_t limit = ~0ULL;       // max total fires
  std::uint32_t scope = kScopeAny;   // only checks with this scope fire
};

namespace internal {
// Bit i set <=> Site(i) is armed. The ONLY state the fast path touches.
extern std::atomic<std::uint32_t> g_armed_mask;
// Armed-path decision: counts the check, applies the policy. In fault.cpp.
bool fire_slow(Site s, std::uint32_t scope);
}  // namespace internal

// The check point. Returns true when the guarded operation should fail.
// Unarmed cost: one relaxed load + bit test. Sharded call sites pass their
// shard/loop index as `scope` so policies can target a single shard; the
// policy's scope (default: any) decides whether the check is eligible.
inline bool should_fire(Site s, std::uint32_t scope = kScopeAny) {
  const std::uint32_t mask =
      internal::g_armed_mask.load(std::memory_order_relaxed);
  if ((mask & (1U << static_cast<unsigned>(s))) == 0) return false;
  return internal::fire_slow(s, scope);
}

// --- programmatic API -------------------------------------------------------
void arm(Site s, const Policy& p = Policy{});
void disarm(Site s);
void disarm_all();           // also resets counters and the fired log
void set_seed(std::uint64_t seed);
std::uint64_t seed();

std::uint64_t check_count(Site s);  // checks observed while armed
std::uint64_t fire_count(Site s);   // checks that fired
// Check numbers (0-based, per site) of the first fires, capped; the replay
// tests compare these across runs.
std::vector<std::uint64_t> fired_checks(Site s);

const char* site_name(Site s);
bool parse_site(const std::string& name, Site* out);

// Parses a spec string and arms the named sites. Returns false (and fills
// *error, if given) on a malformed spec; sites armed before the bad clause
// stay armed.
bool parse_spec(const std::string& spec, std::string* error = nullptr);

// Reads MGC_FAULT / MGC_FAULT_SEED once per process and applies them.
// Called from the Vm constructor so `MGC_FAULT=... ./bench_foo` works with
// no code changes; a malformed spec aborts (a typo'd fault experiment must
// not silently run as a clean one).
void init_from_env();

// --- scoped helpers for tests ----------------------------------------------
class ScopedFault {
 public:
  explicit ScopedFault(Site s, const Policy& p = Policy{}) : site_(s) {
    arm(site_, p);
  }
  ~ScopedFault() { disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  Site site_;
};

// Arms a full spec (with its own seed) and disarms everything on exit.
class ScopedSpec {
 public:
  ScopedSpec(const std::string& spec, std::uint64_t spec_seed);
  ~ScopedSpec();
  ScopedSpec(const ScopedSpec&) = delete;
  ScopedSpec& operator=(const ScopedSpec&) = delete;
};

}  // namespace mgc::fault
