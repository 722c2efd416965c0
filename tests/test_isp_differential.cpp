// ISP golden harness: every solve must reproduce its frozen record in
// tests/golden/isp_corpus.txt bit for bit — repair sequences (order
// included), solver counters, objectives, referee routing and a digest of
// the traced event stream (prune/split amounts, i.e. the flows the engine
// committed).  The corpus was recorded while the callback-kernel engine,
// the cached-view engine with one-shot LPs and the cached-view engine with
// persistent LP sessions agreed on every record, so these suites hold the
// one remaining engine to all three references: any stale view, missed
// invalidation, over-eager rebuild or warm-start drift shows up as a
// diverging record.
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "golden.hpp"
#include "graph/builder.hpp"

namespace {

using namespace netrec;

/// Compares every corpus record whose key starts with `prefix`, solving
/// with `solve_threads` intra-solve workers (0: as the record's options
/// say).
void expect_isp_golden(const std::string& prefix, std::size_t solve_threads) {
  bool matched = false;
  for (const test::IspCase& c : test::isp_cases()) {
    if (c.key.rfind(prefix, 0) != 0) continue;
    matched = true;
    core::IspOptions options = c.options;
    if (solve_threads != 0) options.solve_threads = solve_threads;
    const std::string diff = test::golden_diff(
        test::kIspCorpus, c.key, test::isp_record(c.problem(), options));
    if (!diff.empty()) ADD_FAILURE() << diff;
  }
  EXPECT_TRUE(matched) << "no corpus record matches '" << prefix << "'";
}

std::string seed_prefix(int seed, const char* family) {
  return std::to_string(seed) + " " + family + " ";
}

// Serial solves: 12 ER + 8 Bell-Canada seeds under default options, then
// seeds 101-103 of both families under every option combination.

class IspDifferentialEr : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialEr, CachedMatchesLegacyReference) {
  expect_isp_golden(seed_prefix(GetParam(), "er"), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialEr, ::testing::Range(1, 13));

class IspDifferentialBellCanada : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialBellCanada, CachedMatchesLegacyReference) {
  expect_isp_golden(seed_prefix(GetParam(), "bell-canada"), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialBellCanada,
                         ::testing::Range(1, 9));

class IspDifferentialOptions : public ::testing::TestWithParam<int> {};

TEST_P(IspDifferentialOptions, AllCombosMatchLegacyReference) {
  expect_isp_golden(std::to_string(GetParam() + 100) + " ", 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspDifferentialOptions,
                         ::testing::Range(1, 4));

// The same records solved with a two-worker intra-solve pool: the LP
// sessions' concurrent pricing, the shared-tree centrality and parallel
// Brandes must land on the frozen one-shot reference too.  Seeds 201-203
// carry the option matrix here.

class IspSessionDifferentialEr : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialEr, SessionMatchesOneShotReference) {
  expect_isp_golden(seed_prefix(GetParam(), "er"), 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialEr,
                         ::testing::Range(1, 13));

class IspSessionDifferentialBellCanada
    : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialBellCanada, SessionMatchesOneShotReference) {
  expect_isp_golden(seed_prefix(GetParam(), "bell-canada"), 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialBellCanada,
                         ::testing::Range(1, 9));

class IspSessionDifferentialOptions : public ::testing::TestWithParam<int> {};

TEST_P(IspSessionDifferentialOptions, AllCombosMatchOneShotReference) {
  expect_isp_golden(std::to_string(GetParam() + 200) + " ", 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspSessionDifferentialOptions,
                         ::testing::Range(1, 4));

// netrec-bench's preloads: BA-2000 as in plan_scale and the CAIDA-like
// plan_fresh instance, two damage states of seeds 1 and 104729 each, with
// and without prune, solved under the options they were recorded with (one
// BA record runs two solve threads).  Hub-heavy working graphs make the
// bubble test's floods large here, unlike in the small scenarios above.

TEST(IspDifferentialPreloads, Ba2000Seed1) {
  expect_isp_golden("1 ba-2000 ", 0);
}

TEST(IspDifferentialPreloads, Ba2000Seed104729) {
  expect_isp_golden("104729 ba-2000 ", 0);
}

TEST(IspDifferentialPreloads, CaidaSeed1) { expect_isp_golden("1 caida ", 0); }

TEST(IspDifferentialPreloads, CaidaSeed104729) {
  expect_isp_golden("104729 caida ", 0);
}

// CAIDA-like with 25-unit demands: capacities bind, so the LP's lazy
// capacity rows decide which repairs ISP makes.

TEST(IspDifferentialLazyRows, CaidaBindingCapacities) {
  expect_isp_golden("1 caida-lazy ", 0);
}

// Theorem 4's premise is tested only when the ISP loop stops unrouted; a
// loop that ends routed has proved it.  Either way the flag must equal the
// full-repair routability test.

void expect_flag_matches_full_repair(const core::RecoveryProblem& problem,
                                     const core::IspOptions& options,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  const core::RecoverySolution s = core::IspSolver(problem, options).solve();
  EXPECT_EQ(s.instance_feasible, problem.feasible_when_fully_repaired());
}

TEST(IspFeasibility, FlagMatchesFullRepairOnEveryCorpusCase) {
  for (const test::IspCase& c : test::isp_cases()) {
    expect_flag_matches_full_repair(c.problem(), c.options, c.key);
  }
}

TEST(IspFeasibility, FlagMatchesFullRepairOnInfeasibleInstances) {
  // Two broken triangles with no edge between them; the demand crosses.
  {
    core::RecoveryProblem p;
    graph::Builder builder;
    builder.add_nodes(6);
    for (const auto& [u, v] : {std::pair{0, 1}, {1, 2}, {2, 0}, {3, 4},
                              {4, 5}, {5, 3}}) {
      builder.add_edge(u, v, 10.0);
    }
    p.graph = builder.finalize();
    p.graph.break_everything();
    p.demands = {{0, 1, 2.0}, {1, 4, 3.0}};
    ASSERT_FALSE(p.feasible_when_fully_repaired());
    expect_flag_matches_full_repair(p, {}, "disconnected components");
  }
  // Two parallel broken routes of capacity 4 (min cut 8) under 9 units.
  {
    core::RecoveryProblem p;
    graph::Builder builder;
    builder.add_nodes(4);
    builder.add_edge(0, 1, 4.0);
    builder.add_edge(1, 3, 4.0);
    builder.add_edge(0, 2, 4.0);
    builder.add_edge(2, 3, 4.0);
    p.graph = builder.finalize();
    p.graph.break_everything();
    p.demands = {{0, 3, 9.0}};
    ASSERT_FALSE(p.feasible_when_fully_repaired());
    expect_flag_matches_full_repair(p, {}, "demand above min cut");
  }
}

TEST(IspFeasibility, IterationCapOnFeasibleInstanceKeepsTheFlag) {
  // One iteration cannot repair a 6-hop path, so the loop stops unrouted
  // and the premise is checked on the feasible instance.
  core::RecoveryProblem p;
  graph::Builder builder;
  builder.add_nodes(7);
  for (int i = 0; i < 6; ++i) builder.add_edge(i, i + 1, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 6, 5.0}};
  ASSERT_TRUE(p.feasible_when_fully_repaired());
  core::IspOptions one_iteration;
  one_iteration.max_iterations = 1;
  const core::RecoverySolution s = core::IspSolver(p, one_iteration).solve();
  EXPECT_LT(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(s.instance_feasible);
}

}  // namespace
