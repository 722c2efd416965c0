// util::fault — deterministic fault-injection registry.
//
// Covers the spec grammar (including whole-spec atomicity on malformed
// input), the three trigger modes, decision determinism under re-arming
// and under concurrent hammering (hit indices are unique, so the set of
// firing hits — and therefore the fired count — is a pure function of
// (seed, site, total hits)), the disarmed fast path, env arming and the
// ScopedArm RAII helper.
//
// Site names are unique per test: the registry is process-global and
// sites are never destroyed.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace fault = netrec::util::fault;

namespace {

/// Fires `site` `hits` times and returns the firing pattern.
std::vector<bool> pattern(fault::Site& site, std::size_t hits) {
  std::vector<bool> fired(hits);
  for (std::size_t i = 0; i < hits; ++i) fired[i] = site.fire();
  return fired;
}

TEST(Fault, DisarmedSiteNeverFiresAndCountsNothing) {
  fault::Site& site = fault::site("test.disarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(site.fire());
  EXPECT_FALSE(site.armed());
  EXPECT_EQ(site.hits(), 0u);  // disarmed hits are not even counted
  EXPECT_EQ(site.fired(), 0u);
}

TEST(Fault, EveryNFiresOnExactMultiples) {
  fault::ScopedArm arm("test.every=every3");
  fault::Site& site = fault::site("test.every");
  const std::vector<bool> fired = pattern(site, 9);
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(site.hits(), 9u);
  EXPECT_EQ(site.fired(), 3u);
}

TEST(Fault, OnceFiresExactlyOnceOnTheNthHit) {
  fault::ScopedArm arm("test.once=once4");
  fault::Site& site = fault::site("test.once");
  const std::vector<bool> fired = pattern(site, 10);
  std::vector<bool> expected(10, false);
  expected[3] = true;
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(site.fired(), 1u);
}

TEST(Fault, ProbabilityZeroAndOneAreExact) {
  {
    fault::ScopedArm arm("test.p0=p0");
    fault::Site& site = fault::site("test.p0");
    for (int i = 0; i < 200; ++i) EXPECT_FALSE(site.fire());
  }
  {
    fault::ScopedArm arm("test.p1=p1");
    fault::Site& site = fault::site("test.p1");
    for (int i = 0; i < 200; ++i) EXPECT_TRUE(site.fire());
  }
}

TEST(Fault, ProbabilityPatternIsDeterministicUnderRearm) {
  fault::arm("test.prob=p0.3", 99);
  fault::Site& site = fault::site("test.prob");
  const std::vector<bool> first = pattern(site, 500);
  fault::arm("test.prob=p0.3", 99);  // re-arm resets the hit counter
  const std::vector<bool> second = pattern(site, 500);
  EXPECT_EQ(first, second);

  // A different seed produces a different pattern (with overwhelming
  // probability for 500 draws at p=0.3).
  fault::arm("test.prob=p0.3", 100);
  EXPECT_NE(pattern(site, 500), first);
  fault::disarm_all();
}

TEST(Fault, ProbabilityRateIsRoughlyHonored) {
  fault::ScopedArm arm("test.rate=p0.25");
  fault::Site& site = fault::site("test.rate");
  std::size_t fired = 0;
  const std::size_t hits = 4000;
  for (std::size_t i = 0; i < hits; ++i) fired += site.fire() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fired) / static_cast<double>(hits), 0.25,
              0.05);
}

TEST(Fault, ConcurrentFiredCountIsDeterministic) {
  // Hit indices come from one atomic counter, so over T*K total hits the
  // set of firing indices — and hence the fired count — is the same
  // whatever the thread interleaving.
  const std::size_t kThreads = 8;
  const std::size_t kHitsPerThread = 2000;
  std::uint64_t counts[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    fault::arm("test.concurrent=p0.2", 1234);
    fault::Site& site = fault::site("test.concurrent");
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&site] {
        for (std::size_t i = 0; i < kHitsPerThread; ++i) site.fire();
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(site.hits(), kThreads * kHitsPerThread);
    counts[round] = site.fired();
  }
  fault::disarm_all();
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(Fault, MalformedSpecsThrowWithoutArmingAnything) {
  fault::site("test.atomic.a");
  fault::site("test.atomic.b");
  const std::vector<std::string> bad = {
      "test.atomic.a",                       // no '='
      "=p0.5",                               // empty site name
      "test.atomic.a=",                      // empty trigger
      "test.atomic.a=p",                     // missing number
      "test.atomic.a=p2",                    // probability > 1
      "test.atomic.a=p-0.1",                 // probability < 0
      "test.atomic.a=every0",                // N must be >= 1
      "test.atomic.a=once0",                 // N must be >= 1
      "test.atomic.a=maybe5",                // unknown trigger
      "test.atomic.a=every5x",               // trailing characters
      "test.atomic.a=p0.5,test.atomic.b=?",  // malformed tail...
  };
  for (const std::string& spec : bad) {
    EXPECT_THROW(fault::arm(spec), std::invalid_argument) << spec;
    // ...must not half-arm the valid prefix.
    EXPECT_FALSE(fault::site("test.atomic.a").armed()) << spec;
    EXPECT_FALSE(fault::site("test.atomic.b").armed()) << spec;
  }
}

TEST(Fault, SpecArmsOnlyNamedSites) {
  fault::site("test.named.other");
  fault::ScopedArm arm("test.named.target=every1");
  EXPECT_TRUE(fault::site("test.named.target").armed());
  EXPECT_FALSE(fault::site("test.named.other").armed());
  EXPECT_TRUE(fault::site("test.named.target").fire());
  EXPECT_FALSE(fault::site("test.named.other").fire());
}

TEST(Fault, ScopedArmDisarmsOnDestruction) {
  {
    fault::ScopedArm arm("test.scoped=p1");
    EXPECT_TRUE(fault::site("test.scoped").armed());
  }
  EXPECT_FALSE(fault::site("test.scoped").armed());
  EXPECT_FALSE(fault::site("test.scoped").fire());
}

TEST(Fault, StatsExposeEveryTouchedSite) {
  fault::ScopedArm arm("test.stats=every2");
  fault::Site& site = fault::site("test.stats");
  site.fire();
  site.fire();
  bool found = false;
  for (const fault::SiteStats& stat : fault::stats()) {
    if (stat.name == "test.stats") {
      found = true;
      EXPECT_TRUE(stat.armed);
      EXPECT_EQ(stat.hits, 2u);
      EXPECT_EQ(stat.fired, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fault, FaultPointMacroReachesTheNamedSite) {
  fault::ScopedArm arm("test.macro=every1");
  EXPECT_TRUE(FAULT_POINT("test.macro"));
  EXPECT_EQ(fault::site("test.macro").fired(), 1u);
  fault::disarm_all();
  EXPECT_FALSE(FAULT_POINT("test.macro"));
}

}  // namespace
