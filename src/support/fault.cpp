#include "support/fault.h"

#include <cstdlib>

#include "support/check.h"
#include "support/mutex.h"
#include "support/rng.h"

namespace mgc::fault {

namespace internal {
std::atomic<std::uint32_t> g_armed_mask{0};
}  // namespace internal

namespace {

// Cap on the per-site fired-check log: enough for the replay tests to
// compare sequences, bounded so a high-probability site in a long run
// cannot grow without bound.
constexpr std::size_t kFiredLogCap = 64;

struct SiteState {
  Policy policy;
  std::uint64_t checks = 0;
  std::uint64_t fires = 0;
  std::vector<std::uint64_t> fired_log;
};

// One mutex guards all slow-path state. Only armed checks take it; the
// unarmed fast path never reaches here. Ranked as a global leaf: checks
// run under shard queues, the commit-log lock, even heap spinlocks.
Mutex g_mu{LockRank::kFault, "fault"};
SiteState g_sites[kNumSites] MGC_GUARDED_BY(g_mu);  // NOLINT(modernize-avoid-c-arrays)
std::uint64_t g_seed MGC_GUARDED_BY(g_mu) = 0;

std::size_t idx(Site s) { return static_cast<std::size_t>(s); }

// Pure function of (seed, site, check number): the same triple always
// yields the same verdict, which is what makes armed runs replayable.
bool hash_fires(std::uint64_t seed_v, Site s, std::uint64_t n, double p) {
  if (p >= 1.0) return true;
  if (p <= 0.0) return false;
  std::uint64_t state =
      seed_v ^ (0x9e3779b97f4a7c15ULL * (idx(s) + 1)) ^ (n * 0xd1342543de82ef95ULL);
  const std::uint64_t h = splitmix64(state);
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < p;
}

const char* const kSiteNames[kNumSites] = {
    "heap-alloc",     "tlab-refill",    "plab-refill",        "old-alloc",
    "heap-expand",    "promotion-fail", "g1-evac-fail",       "cms-concurrent-fail",
    "gc-worker-stall","commitlog-write","kv-queue-full",      "net-accept",
    "net-read-short", "net-write-short","net-epipe",
    "repl-append-drop", "repl-ack-drop", "repl-heartbeat-loss",
    "repl-follower-stall",
};

}  // namespace

namespace internal {

bool fire_slow(Site s, std::uint32_t scope) {
  MutexLock l(g_mu);
  SiteState& st = g_sites[idx(s)];
  // Re-check under the lock: the relaxed fast-path load may have raced a
  // disarm; the lock makes policy reads consistent.
  if ((g_armed_mask.load(std::memory_order_relaxed) &
       (1U << static_cast<unsigned>(s))) == 0) {
    return false;
  }
  // Every check is counted (scoped or not) so fired-check numbers stay a
  // pure function of the site's overall check sequence; a scoped policy
  // then only fires at checks carrying the matching shard/loop index.
  const std::uint64_t n = st.checks++;
  if (st.policy.scope != kScopeAny && scope != st.policy.scope) return false;
  if (n < st.policy.after) return false;
  if (st.fires >= st.policy.limit) return false;
  if (!hash_fires(g_seed, s, n, st.policy.probability)) return false;
  st.fires++;
  if (st.fired_log.size() < kFiredLogCap) st.fired_log.push_back(n);
  return true;
}

}  // namespace internal

void arm(Site s, const Policy& p) {
  MGC_CHECK(s < Site::kNumSites);
  {
    MutexLock l(g_mu);
    SiteState& st = g_sites[idx(s)];
    st.policy = p;
    st.checks = 0;
    st.fires = 0;
    st.fired_log.clear();
  }
  internal::g_armed_mask.fetch_or(1U << static_cast<unsigned>(s),
                                  std::memory_order_release);
}

void disarm(Site s) {
  internal::g_armed_mask.fetch_and(~(1U << static_cast<unsigned>(s)),
                                   std::memory_order_release);
}

void disarm_all() {
  internal::g_armed_mask.store(0, std::memory_order_release);
  MutexLock l(g_mu);
  for (auto& st : g_sites) {
    st.policy = Policy{};
    st.checks = 0;
    st.fires = 0;
    st.fired_log.clear();
  }
}

void set_seed(std::uint64_t seed_v) {
  MutexLock l(g_mu);
  g_seed = seed_v;
}

std::uint64_t seed() {
  MutexLock l(g_mu);
  return g_seed;
}

std::uint64_t check_count(Site s) {
  MutexLock l(g_mu);
  return g_sites[idx(s)].checks;
}

std::uint64_t fire_count(Site s) {
  MutexLock l(g_mu);
  return g_sites[idx(s)].fires;
}

std::vector<std::uint64_t> fired_checks(Site s) {
  MutexLock l(g_mu);
  return g_sites[idx(s)].fired_log;
}

const char* site_name(Site s) {
  return s < Site::kNumSites ? kSiteNames[idx(s)] : "?";
}

bool parse_site(const std::string& name, Site* out) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (name == kSiteNames[i]) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

namespace {

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_clause(const std::string& clause, std::string* error) {
  // site[=probability][:after=N][:limit=M][:oneshot]
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = clause.find(':', start);
    parts.push_back(clause.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }

  Policy p;
  std::string head = parts[0];
  const std::size_t eq = head.find('=');
  std::string site_name_str = head.substr(0, eq);
  if (eq != std::string::npos) {
    const std::string prob = head.substr(eq + 1);
    char* end = nullptr;
    p.probability = std::strtod(prob.c_str(), &end);
    if (prob.empty() || end != prob.c_str() + prob.size() ||
        p.probability < 0.0 || p.probability > 1.0) {
      if (error != nullptr) *error = "bad probability in '" + clause + "'";
      return false;
    }
  }

  Site site{};
  if (!parse_site(site_name_str, &site)) {
    if (error != nullptr) *error = "unknown fault site '" + site_name_str + "'";
    return false;
  }

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& opt = parts[i];
    if (opt == "oneshot") {
      p.limit = 1;
    } else if (opt.rfind("after=", 0) == 0) {
      if (!parse_u64(opt.substr(6), &p.after)) {
        if (error != nullptr) *error = "bad option '" + opt + "'";
        return false;
      }
    } else if (opt.rfind("limit=", 0) == 0) {
      if (!parse_u64(opt.substr(6), &p.limit)) {
        if (error != nullptr) *error = "bad option '" + opt + "'";
        return false;
      }
    } else if (opt.rfind("scope=", 0) == 0 || opt.rfind("shard=", 0) == 0 ||
               opt.rfind("loop=", 0) == 0) {
      // 'shard=' and 'loop=' are readable aliases for the generic scope.
      std::uint64_t v = 0;
      if (!parse_u64(opt.substr(opt.find('=') + 1), &v) || v >= kScopeAny) {
        if (error != nullptr) *error = "bad option '" + opt + "'";
        return false;
      }
      p.scope = static_cast<std::uint32_t>(v);
    } else {
      if (error != nullptr) *error = "unknown option '" + opt + "'";
      return false;
    }
  }

  arm(site, p);
  return true;
}

}  // namespace

bool parse_spec(const std::string& spec, std::string* error) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string clause =
        spec.substr(start, semi == std::string::npos ? std::string::npos
                                                     : semi - start);
    if (!clause.empty() && !parse_clause(clause, error)) return false;
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return true;
}

void init_from_env() {
  static const bool once = [] {
    const char* seed_s = std::getenv("MGC_FAULT_SEED");  // NOLINT(concurrency-mt-unsafe)
    if (seed_s != nullptr && *seed_s != '\0') {
      std::uint64_t v = 0;
      MGC_CHECK_MSG(parse_u64(seed_s, &v), "MGC_FAULT_SEED must be an integer");
      set_seed(v);
    }
    const char* spec = std::getenv("MGC_FAULT");  // NOLINT(concurrency-mt-unsafe)
    if (spec != nullptr && *spec != '\0') {
      std::string err;
      if (!parse_spec(spec, &err)) {
        panic(__FILE__, __LINE__, ("MGC_FAULT: " + err).c_str());
      }
    }
    return true;
  }();
  (void)once;
}

ScopedSpec::ScopedSpec(const std::string& spec, std::uint64_t spec_seed) {
  disarm_all();
  set_seed(spec_seed);
  std::string err;
  if (!parse_spec(spec, &err)) {
    panic(__FILE__, __LINE__, ("fault spec: " + err).c_str());
  }
}

ScopedSpec::~ScopedSpec() { disarm_all(); }

}  // namespace mgc::fault
