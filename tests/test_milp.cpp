// Branch-and-bound MILP tests: knapsacks with known optima, infeasibility,
// incumbents/cutoffs, and a property sweep against brute-force enumeration
// of binary assignments.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "util/rng.hpp"

namespace netrec::milp {
namespace {

using lp::Goal;
using lp::kInfinity;
using lp::Model;
using lp::Sense;

/// min -sum(values) knapsack as a minimisation model.
Model knapsack(const std::vector<double>& value,
               const std::vector<double>& weight, double budget,
               std::vector<int>* binaries) {
  Model m;
  m.goal = Goal::kMinimize;
  const int row = m.add_constraint(Sense::kLessEqual, budget);
  for (std::size_t i = 0; i < value.size(); ++i) {
    const int v = m.add_variable(0.0, 1.0, -value[i]);
    m.set_coefficient(row, v, weight[i]);
    binaries->push_back(v);
  }
  return m;
}

TEST(Milp, SolvesSmallKnapsackExactly) {
  std::vector<int> binaries;
  // values 6,5,4 weights 3,2,2, budget 4 -> take {5,4} = 9.
  Model m = knapsack({6, 5, 4}, {3, 2, 2}, 4, &binaries);
  MilpSolver solver(std::move(m), binaries);
  const MilpResult r = solver.solve();
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.objective, -9.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.x[2], 1.0, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Milp, FractionalLpNeedsBranching) {
  std::vector<int> binaries;
  // LP relaxation takes half of item 0; integral optimum differs.
  Model m = knapsack({10, 6}, {4, 3}, 5, &binaries);
  MilpSolver solver(std::move(m), binaries);
  const MilpResult r = solver.solve();
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.objective, -10.0, 1e-6);  // item 0 alone
  EXPECT_GE(r.nodes_explored, 2);
}

TEST(Milp, DetectsIntegerInfeasibility) {
  // x binary with 0.4 <= x <= 0.6 via rows: no integer point.
  Model m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  const int r1 = m.add_constraint(Sense::kGreaterEqual, 0.4);
  const int r2 = m.add_constraint(Sense::kLessEqual, 0.6);
  m.set_coefficient(r1, x, 1.0);
  m.set_coefficient(r2, x, 1.0);
  MilpSolver solver(std::move(m), {x});
  const MilpResult r = solver.solve();
  EXPECT_FALSE(r.feasible);
}

TEST(Milp, CutoffPrunesToIncumbent) {
  std::vector<int> binaries;
  Model m = knapsack({6, 5, 4}, {3, 2, 2}, 4, &binaries);
  MilpSolver solver(std::move(m), binaries);
  solver.set_cutoff(-9.0 + 1e-9);  // already optimal: nothing below exists
  const MilpResult r = solver.solve();
  // The solver may not FIND a solution below the cutoff; but it must prove
  // the bound.
  EXPECT_GE(r.bound, -9.0 - 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
  // min -x - 2y, x binary, y continuous <= 1.5, x + y <= 2.
  Model m;
  const int x = m.add_variable(0.0, 1.0, -1.0);
  const int y = m.add_variable(0.0, 1.5, -2.0);
  const int row = m.add_constraint(Sense::kLessEqual, 2.0);
  m.set_coefficient(row, x, 1.0);
  m.set_coefficient(row, y, 1.0);
  MilpSolver solver(std::move(m), {x});
  const MilpResult r = solver.solve();
  ASSERT_TRUE(r.feasible);
  // Best with x integral: x=0,y=1.5 or x=1,y=1, both objective -3.
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
  EXPECT_TRUE(r.proven_optimal);
}

class MilpRandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomKnapsack, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 11);
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  std::vector<double> value(static_cast<std::size_t>(n));
  std::vector<double> weight(static_cast<std::size_t>(n));
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(1.0, 10.0);
    weight[static_cast<std::size_t>(i)] = rng.uniform(1.0, 5.0);
    total_weight += weight[static_cast<std::size_t>(i)];
  }
  const double budget = rng.uniform(0.2, 0.8) * total_weight;

  std::vector<int> binaries;
  Model m = knapsack(value, weight, budget, &binaries);
  MilpSolver solver(std::move(m), binaries);
  const MilpResult r = solver.solve();

  // Brute force over all subsets.
  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0.0;
    double v = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        w += weight[static_cast<std::size_t>(i)];
        v += value[static_cast<std::size_t>(i)];
      }
    }
    if (w <= budget + 1e-9) best = std::max(best, v);
  }
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.objective, -best, 1e-5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, MilpRandomKnapsack,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace netrec::milp
