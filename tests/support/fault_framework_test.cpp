// Unit tests for the deterministic fault-injection framework: policy
// mechanics (probability / after / limit / oneshot), replay determinism of
// the seeded fire schedule, spec parsing, and the scoped helpers.
#include <gtest/gtest.h>

#include "support/fault.h"

namespace mgc::fault {
namespace {

// Every test leaves the global registry clean; this guards against a
// failing EXPECT leaking an armed site into later tests in this binary.
class FaultFramework : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultFramework, UnarmedSitesNeverFireAndCountNothing) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const Site s = static_cast<Site>(i);
    EXPECT_FALSE(should_fire(s)) << site_name(s);
    EXPECT_EQ(check_count(s), 0u) << site_name(s);
  }
}

TEST_F(FaultFramework, AfterAndLimitBoundTheFireWindow) {
  Policy p;
  p.after = 2;
  p.limit = 3;
  arm(Site::kNetEpipe, p);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t n = 0; n < 10; ++n) {
    if (should_fire(Site::kNetEpipe)) fired.push_back(n);
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(check_count(Site::kNetEpipe), 10u);
  EXPECT_EQ(fire_count(Site::kNetEpipe), 3u);
  EXPECT_EQ(fired_checks(Site::kNetEpipe),
            (std::vector<std::uint64_t>{2, 3, 4}));
}

TEST_F(FaultFramework, OneshotFiresExactlyOnce) {
  Policy p;
  p.limit = 1;
  arm(Site::kPromotionFail, p);
  int fires = 0;
  for (int n = 0; n < 20; ++n) {
    if (should_fire(Site::kPromotionFail)) ++fires;
  }
  EXPECT_EQ(fires, 1);
}

TEST_F(FaultFramework, ProbabilityScheduleReplaysUnderTheSameSeed) {
  auto run = [](std::uint64_t seed_v) {
    disarm_all();
    set_seed(seed_v);
    Policy p;
    p.probability = 0.3;
    arm(Site::kCommitLogWrite, p);
    for (int n = 0; n < 200; ++n) (void)should_fire(Site::kCommitLogWrite);
    return fired_checks(Site::kCommitLogWrite);
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty()) << "p=0.3 over 200 checks must fire sometimes";
  EXPECT_LT(a.size(), 200u) << "p=0.3 must not fire on every check";
  EXPECT_EQ(a, b) << "same seed, same spec => same fire schedule";
  EXPECT_NE(a, c) << "the seed must steer the schedule";
}

TEST_F(FaultFramework, DisarmAllResetsCountersAndSchedules) {
  arm(Site::kNetAccept);
  ASSERT_TRUE(should_fire(Site::kNetAccept));
  disarm_all();
  EXPECT_FALSE(should_fire(Site::kNetAccept));
  EXPECT_EQ(check_count(Site::kNetAccept), 0u);
  EXPECT_EQ(fire_count(Site::kNetAccept), 0u);
}

TEST_F(FaultFramework, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const Site s = static_cast<Site>(i);
    Site parsed{};
    EXPECT_TRUE(parse_site(site_name(s), &parsed)) << site_name(s);
    EXPECT_EQ(parsed, s);
  }
  Site ignored{};
  EXPECT_FALSE(parse_site("no-such-site", &ignored));
}

TEST_F(FaultFramework, ParseSpecArmsEveryClause) {
  std::string err;
  ASSERT_TRUE(parse_spec("promotion-fail:after=3:oneshot;net-epipe=0.5;"
                         "tlab-refill=0:limit=9",
                         &err))
      << err;
  // promotion-fail: eligible from check 3, once.
  EXPECT_FALSE(should_fire(Site::kPromotionFail));
  EXPECT_FALSE(should_fire(Site::kPromotionFail));
  EXPECT_FALSE(should_fire(Site::kPromotionFail));
  EXPECT_TRUE(should_fire(Site::kPromotionFail));
  EXPECT_FALSE(should_fire(Site::kPromotionFail));
  // probability 0 is armed but never fires (counts checks, though).
  for (int n = 0; n < 50; ++n) EXPECT_FALSE(should_fire(Site::kTlabRefill));
  EXPECT_EQ(check_count(Site::kTlabRefill), 50u);
}

TEST_F(FaultFramework, MalformedSpecsAreRejectedWithAnError) {
  for (const char* bad : {"no-such-site", "net-epipe=1.5", "net-epipe=x",
                          "promotion-fail:bogus", "promotion-fail:after=q"}) {
    std::string err;
    EXPECT_FALSE(parse_spec(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    disarm_all();
  }
}

TEST_F(FaultFramework, ScopedPolicyFiresOnlyOnMatchingScope) {
  Policy p;
  p.scope = 2;
  arm(Site::kKvQueueFull, p);
  // Only shard 2's checks fire; other shards and unscoped checks pass.
  EXPECT_FALSE(should_fire(Site::kKvQueueFull, 0));
  EXPECT_FALSE(should_fire(Site::kKvQueueFull, 1));
  EXPECT_TRUE(should_fire(Site::kKvQueueFull, 2));
  EXPECT_FALSE(should_fire(Site::kKvQueueFull, 3));
  EXPECT_FALSE(should_fire(Site::kKvQueueFull));  // unscoped call site
  // Every check is counted (scope filtering happens after counting, so the
  // check numbering replays identically whatever the policy's scope).
  EXPECT_EQ(check_count(Site::kKvQueueFull), 5u);
  EXPECT_EQ(fire_count(Site::kKvQueueFull), 1u);
}

TEST_F(FaultFramework, UnscopedPolicyMatchesEveryScope) {
  arm(Site::kCommitLogWrite);
  EXPECT_TRUE(should_fire(Site::kCommitLogWrite, 0));
  EXPECT_TRUE(should_fire(Site::kCommitLogWrite, 7));
  EXPECT_TRUE(should_fire(Site::kCommitLogWrite));
}

TEST_F(FaultFramework, ScopeAndCountingComposeWithAfterAndLimit) {
  // after/limit apply to the site's global check numbering, not to the
  // per-scope subsequence — scope only gates whether an eligible check
  // actually fires.
  Policy p;
  p.scope = 1;
  p.after = 2;
  p.limit = 2;
  arm(Site::kNetAccept, p);
  std::vector<int> fired;
  for (int n = 0; n < 8; ++n) {
    // Alternate scopes 0/1: checks 0,2,4,6 are scope 0; 1,3,5,7 scope 1.
    if (should_fire(Site::kNetAccept, static_cast<std::uint32_t>(n % 2))) {
      fired.push_back(n);
    }
  }
  // Eligible from check 2 on, scope-1 checks are 3,5,7; limit 2 => {3, 5}.
  EXPECT_EQ(fired, (std::vector<int>{3, 5}));
}

TEST_F(FaultFramework, ParseSpecScopeClause) {
  std::string err;
  ASSERT_TRUE(parse_spec("kv-queue-full:shard=1;net-accept:loop=0:oneshot",
                         &err))
      << err;
  EXPECT_FALSE(should_fire(Site::kKvQueueFull, 0));
  EXPECT_TRUE(should_fire(Site::kKvQueueFull, 1));
  EXPECT_TRUE(should_fire(Site::kNetAccept, 0));
  EXPECT_FALSE(should_fire(Site::kNetAccept, 0)) << "oneshot spent";
  EXPECT_FALSE(should_fire(Site::kNetAccept, 1));
  disarm_all();
  // scope= is the generic spelling; the wildcard value is reserved.
  ASSERT_TRUE(parse_spec("commitlog-write:scope=3", &err)) << err;
  EXPECT_FALSE(should_fire(Site::kCommitLogWrite, 2));
  EXPECT_TRUE(should_fire(Site::kCommitLogWrite, 3));
  EXPECT_FALSE(parse_spec("commitlog-write:scope=4294967295", &err));
}

TEST_F(FaultFramework, ScopedHelpersDisarmOnExit) {
  {
    ScopedFault f(Site::kKvQueueFull);
    EXPECT_TRUE(should_fire(Site::kKvQueueFull));
  }
  EXPECT_FALSE(should_fire(Site::kKvQueueFull));
  {
    ScopedSpec spec("kv-queue-full;net-accept:oneshot", /*spec_seed=*/3);
    EXPECT_TRUE(should_fire(Site::kKvQueueFull));
    EXPECT_TRUE(should_fire(Site::kNetAccept));
    EXPECT_FALSE(should_fire(Site::kNetAccept));
  }
  EXPECT_FALSE(should_fire(Site::kKvQueueFull));
}

}  // namespace
}  // namespace mgc::fault
