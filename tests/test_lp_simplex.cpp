// Unit and property tests for the bounded-variable revised simplex.
//
// The property suite cross-checks simplex optima against brute-force
// enumeration of basic solutions on random small LPs — if the two ever
// disagree, everything built on top (routability, split LP, OPT) is suspect.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "referees.hpp"
#include "util/rng.hpp"

namespace netrec::lp {
namespace {

TEST(Simplex, SolvesTextbookTwoVariableLp) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), obj 36.
  Model m;
  m.goal = Goal::kMaximize;
  const int x = m.add_variable(0.0, kInfinity, 3.0);
  const int y = m.add_variable(0.0, kInfinity, 5.0);
  const int r1 = m.add_constraint(Sense::kLessEqual, 4.0);
  const int r2 = m.add_constraint(Sense::kLessEqual, 12.0);
  const int r3 = m.add_constraint(Sense::kLessEqual, 18.0);
  m.set_coefficient(r1, x, 1.0);
  m.set_coefficient(r2, y, 2.0);
  m.set_coefficient(r3, x, 3.0);
  m.set_coefficient(r3, y, 2.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int r1 = m.add_constraint(Sense::kGreaterEqual, 5.0);
  const int r2 = m.add_constraint(Sense::kLessEqual, 3.0);
  m.set_coefficient(r1, x, 1.0);
  m.set_coefficient(r2, x, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  m.goal = Goal::kMaximize;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 0.0);
  const int r = m.add_constraint(Sense::kLessEqual, 10.0);
  m.set_coefficient(r, y, 1.0);
  (void)x;  // x unconstrained above -> objective unbounded
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  // max x + y st x + y <= 10, x in [0,3], y in [0,4] -> 7.
  Model m;
  m.goal = Goal::kMaximize;
  const int x = m.add_variable(0.0, 3.0, 1.0);
  const int y = m.add_variable(0.0, 4.0, 1.0);
  const int r = m.add_constraint(Sense::kLessEqual, 10.0);
  m.set_coefficient(r, x, 1.0);
  m.set_coefficient(r, y, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Simplex, HandlesEqualityRows) {
  // min x + 2y st x + y = 5, x - y = 1 -> x=3, y=2, obj 7.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 2.0);
  const int r1 = m.add_constraint(Sense::kEqual, 5.0);
  const int r2 = m.add_constraint(Sense::kEqual, 1.0);
  m.set_coefficient(r1, x, 1.0);
  m.set_coefficient(r1, y, 1.0);
  m.set_coefficient(r2, x, 1.0);
  m.set_coefficient(r2, y, -1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
  EXPECT_NEAR(s.x[1], 2.0, 1e-7);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x st x >= -5 (bound), x >= -3 (row)  -> -3.
  Model m;
  const int x = m.add_variable(-5.0, kInfinity, 1.0);
  const int r = m.add_constraint(Sense::kGreaterEqual, -3.0);
  m.set_coefficient(r, x, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: several redundant rows through the origin.
  Model m;
  m.goal = Goal::kMaximize;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  for (int k = 1; k <= 6; ++k) {
    const int r = m.add_constraint(Sense::kLessEqual, 0.0);
    m.set_coefficient(r, x, static_cast<double>(k));
    m.set_coefficient(r, y, -1.0);
  }
  const int cap = m.add_constraint(Sense::kLessEqual, 10.0);
  m.set_coefficient(cap, x, 1.0);
  m.set_coefficient(cap, y, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // y >= 6x and x + y <= 10: best is x = 10/7, y = 60/7.
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

TEST(Simplex, WarmRestartAfterAddingColumn) {
  Model m;
  m.goal = Goal::kMaximize;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int cap = m.add_constraint(Sense::kLessEqual, 8.0);
  m.set_coefficient(cap, x, 1.0);
  Basis basis;
  Solution first = solve(m, {}, &basis);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 8.0, 1e-7);

  // Add a more valuable column; warm solve must pick it up.
  const int y = m.add_variable(0.0, kInfinity, 3.0);
  m.set_coefficient(cap, y, 1.0);
  Solution second = solve(m, {}, &basis);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.objective, 24.0, 1e-7);
  EXPECT_NEAR(second.x[static_cast<std::size_t>(y)], 8.0, 1e-7);
  EXPECT_NEAR(second.x[static_cast<std::size_t>(x)], 0.0, 1e-7);
}

TEST(Simplex, DualsHaveMinimisationConvention) {
  // min 2x st x >= 3  ->  dual of the >= row is 2 (worth 2 per unit rhs).
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 2.0);
  const int r = m.add_constraint(Sense::kGreaterEqual, 3.0);
  m.set_coefficient(r, x, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.duals.size(), 1u);
  EXPECT_NEAR(s.duals[0], 2.0, 1e-7);
}

// --- property test: random LPs vs brute-force vertex enumeration ---------

/// Brute force: enumerate all choices of active constraints/bounds forming a
/// square system, solve, keep the best feasible point.  Exponential — only
/// for tiny LPs.
struct BruteForceResult {
  bool feasible = false;
  double objective = 0.0;
};

BruteForceResult brute_force(const Model& m) {
  const int n = m.num_variables();
  const int rows = m.num_constraints();
  // Equations available: each row as equality, each bound as equality.
  struct Equation {
    std::vector<double> a;
    double b;
  };
  std::vector<Equation> pool;
  for (int r = 0; r < rows; ++r) {
    Equation eq;
    eq.a.assign(static_cast<std::size_t>(n), 0.0);
    for (int v = 0; v < n; ++v) {
      for (const Entry& e : m.variable(v).column) {
        if (e.row == r) eq.a[static_cast<std::size_t>(v)] = e.value;
      }
    }
    eq.b = m.constraint(r).rhs;
    pool.push_back(std::move(eq));
  }
  for (int v = 0; v < n; ++v) {
    const Variable& var = m.variable(v);
    if (std::isfinite(var.lower)) {
      Equation eq;
      eq.a.assign(static_cast<std::size_t>(n), 0.0);
      eq.a[static_cast<std::size_t>(v)] = 1.0;
      eq.b = var.lower;
      pool.push_back(std::move(eq));
    }
    if (std::isfinite(var.upper)) {
      Equation eq;
      eq.a.assign(static_cast<std::size_t>(n), 0.0);
      eq.a[static_cast<std::size_t>(v)] = 1.0;
      eq.b = var.upper;
      pool.push_back(std::move(eq));
    }
  }
  const int pool_size = static_cast<int>(pool.size());
  BruteForceResult best;
  const double sign = m.goal == Goal::kMinimize ? 1.0 : -1.0;

  std::vector<int> pick(static_cast<std::size_t>(n), 0);
  std::function<void(int, int)> recurse = [&](int next, int chosen) {
    if (chosen == n) {
      // Solve the n x n system by Gaussian elimination.
      std::vector<std::vector<double>> a(
          static_cast<std::size_t>(n),
          std::vector<double>(static_cast<std::size_t>(n) + 1, 0.0));
      for (int i = 0; i < n; ++i) {
        const Equation& eq = pool[static_cast<std::size_t>(pick[
            static_cast<std::size_t>(i)])];
        for (int j = 0; j < n; ++j) {
          a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              eq.a[static_cast<std::size_t>(j)];
        }
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(n)] = eq.b;
      }
      for (int col = 0; col < n; ++col) {
        int piv = -1;
        double mag = 1e-9;
        for (int r = col; r < n; ++r) {
          if (std::abs(a[static_cast<std::size_t>(r)][
                  static_cast<std::size_t>(col)]) > mag) {
            mag = std::abs(a[static_cast<std::size_t>(r)][
                static_cast<std::size_t>(col)]);
            piv = r;
          }
        }
        if (piv < 0) return;  // singular combination
        std::swap(a[static_cast<std::size_t>(col)],
                  a[static_cast<std::size_t>(piv)]);
        for (int r = 0; r < n; ++r) {
          if (r == col) continue;
          const double f = a[static_cast<std::size_t>(r)][
                               static_cast<std::size_t>(col)] /
                           a[static_cast<std::size_t>(col)][
                               static_cast<std::size_t>(col)];
          for (int c = col; c <= n; ++c) {
            a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] -=
                f * a[static_cast<std::size_t>(col)][
                        static_cast<std::size_t>(c)];
          }
        }
      }
      std::vector<double> x(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] =
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(n)] /
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
      }
      if (!is_feasible(m, x, 1e-6)) return;
      const double obj = m.objective_value(x);
      if (!best.feasible || sign * obj < sign * best.objective) {
        best.feasible = true;
        best.objective = obj;
      }
      return;
    }
    if (next >= pool_size) return;
    pick[static_cast<std::size_t>(chosen)] = next;
    recurse(next + 1, chosen + 1);
    recurse(next + 1, chosen);
  };
  if (n > 0) recurse(0, 0);
  return best;
}

class SimplexRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp, MatchesBruteForceOnBoundedRandomLps) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = static_cast<int>(rng.uniform_int(2, 4));
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  Model m;
  m.goal = rng.chance(0.5) ? Goal::kMinimize : Goal::kMaximize;
  for (int v = 0; v < n; ++v) {
    const double lo = rng.uniform(-3.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 6.0);
    m.add_variable(lo, hi, rng.uniform(-5.0, 5.0));
  }
  for (int r = 0; r < rows; ++r) {
    const std::array<Sense, 3> senses{Sense::kLessEqual, Sense::kEqual,
                                      Sense::kGreaterEqual};
    const Sense sense = senses[static_cast<std::size_t>(
        rng.uniform_int(0, 2))];
    const int row = m.add_constraint(sense, rng.uniform(-4.0, 8.0));
    for (int v = 0; v < n; ++v) {
      if (rng.chance(0.75)) {
        m.set_coefficient(row, v, rng.uniform(-3.0, 3.0));
      }
    }
  }

  const Solution s = solve(m);
  const BruteForceResult reference = brute_force(m);
  if (reference.feasible) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << "simplex says " << to_string(s.status)
        << " but brute force found objective " << reference.objective;
    EXPECT_NEAR(s.objective, reference.objective, 1e-5);
    EXPECT_TRUE(is_feasible(m, s.x, 1e-5));
  } else {
    // All variables bounded -> unboundedness impossible; must be infeasible.
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLpSweep, SimplexRandomLp,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace netrec::lp
