// lp::Basis compatibility and degradation paths: a feasible warm basis is
// accepted as-is, appended rows degrade to a partial restart (new rows'
// slacks basic, artificial repair + warm phase 1 only where violated), rhs
// drift and a branch-and-bound bound change are repaired instead of
// rejected, and a stale basis (recorded for *more* rows than the model
// has) falls back to a full cold start.  Every path must land on the same
// optimum as a cold solve of the same model; the warm paths must also do
// fewer simplex iterations than their cold counterparts.
#include <gtest/gtest.h>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace {

using namespace netrec;

/// min  x0 + 2 x1   s.t.  x0 + x1 >= 4,  x0 <= 3,  x1 <= 5,  x >= 0.
lp::Model small_model() {
  lp::Model m;
  m.goal = lp::Goal::kMinimize;
  const int x0 = m.add_variable(0.0, 3.0, 1.0);
  const int x1 = m.add_variable(0.0, 5.0, 2.0);
  const int r = m.add_constraint(lp::Sense::kGreaterEqual, 4.0);
  m.set_coefficient(r, x0, 1.0);
  m.set_coefficient(r, x1, 1.0);
  return m;
}

/// A transportation-ish LP with `pairs` equality rows and one shared
/// capacity row — enough structure for warm starts to matter.
lp::Model flow_model(int pairs, double rhs, double capacity) {
  lp::Model m;
  m.goal = lp::Goal::kMinimize;
  const int cap_row = m.add_constraint(lp::Sense::kLessEqual, capacity);
  for (int i = 0; i < pairs; ++i) {
    const int row = m.add_constraint(lp::Sense::kEqual, rhs);
    const int cheap = m.add_variable(0.0, lp::kInfinity, 1.0 + i);
    const int costly = m.add_variable(0.0, lp::kInfinity, 10.0);
    m.set_coefficient(row, cheap, 1.0);
    m.set_coefficient(row, costly, 1.0);
    m.set_coefficient(cap_row, cheap, 1.0);  // cheap route shares capacity
  }
  return m;
}

TEST(SimplexWarm, FeasibleWarmBasisAcceptedAndCheap) {
  lp::Model m = flow_model(6, 2.0, 8.0);
  lp::Basis basis;
  const lp::Solution cold = lp::solve(m, {}, &basis);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(basis.rows, 0) << "basis must be exportable";

  const lp::Solution warm = lp::solve(m, {}, &basis);
  EXPECT_EQ(warm.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SimplexWarm, RowAppendIsPartialNotFullColdStart) {
  lp::Model m = flow_model(8, 2.0, 100.0);
  lp::Basis basis;
  ASSERT_EQ(lp::solve(m, {}, &basis).status, lp::SolveStatus::kOptimal);

  // Append a violated capacity row over the first pair's cheap variable
  // (optimal at 2.0 so far; the new row allows 1.0).
  const int new_row = m.add_constraint(lp::Sense::kLessEqual, 1.0);
  m.set_coefficient(new_row, 0, 1.0);

  const lp::Solution warm = lp::solve(m, {}, &basis);
  ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);

  const lp::Solution cold = lp::solve(m);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
  EXPECT_LT(warm.iterations, cold.iterations)
      << "repairing one appended row must beat a full two-phase cold start";
}

TEST(SimplexWarm, RhsDriftRepairedInPlace) {
  lp::Model m = flow_model(6, 2.0, 8.0);
  lp::Basis basis;
  ASSERT_EQ(lp::solve(m, {}, &basis).status, lp::SolveStatus::kOptimal);

  // Tighten the shared capacity and shrink one demand: the recorded basis
  // goes primal infeasible; the warm start repairs it with artificials on
  // the violated rows only.
  m.constraint(0).rhs = 3.0;
  m.constraint(1).rhs = 1.0;
  const lp::Solution warm = lp::solve(m, {}, &basis);
  ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);
  const lp::Solution cold = lp::solve(m);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
}

TEST(SimplexWarm, StaleDimensionBasisFallsBackToColdStart) {
  lp::Model big = flow_model(8, 2.0, 100.0);
  lp::Basis basis;
  ASSERT_EQ(lp::solve(big, {}, &basis).status,
            lp::SolveStatus::kOptimal);
  ASSERT_GT(basis.rows, 1);

  // A model with *fewer* rows than the basis records: the basis must be
  // discarded (there is no meaningful mapping), and the solve must still
  // succeed from cold.
  lp::Model small = small_model();
  const lp::Solution s = lp::solve(small, {}, &basis);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 5.0);  // x0 = 3 (cost 3), x1 = 1 (cost 2)
  // The basis is re-exported for the small model afterwards.
  EXPECT_EQ(basis.rows, small.num_constraints());
}

TEST(SimplexWarm, ColumnAppendStillWarmStarts) {
  lp::Model m = flow_model(6, 2.0, 8.0);
  lp::Basis basis;
  const lp::Solution first = lp::solve(m, {}, &basis);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);

  // A cheaper column for the last pair (column generation shape): new
  // variables start nonbasic at bound, so the old basis stays valid.
  const int extra = m.add_variable(0.0, lp::kInfinity, 0.5);
  m.set_coefficient(m.num_constraints() - 1, extra, 1.0);
  const lp::Solution warm = lp::solve(m, {}, &basis);
  ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);
  const lp::Solution cold = lp::solve(m);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(SimplexWarm, EqualityHeavyBasisSurvivesDegenerateArtificials) {
  // Equality-only models routinely finish phase 1 with a degenerate
  // artificial still basic.  The exported basis encodes it as the row's
  // slack, so the *next* solve can still warm-start.
  lp::Model m;
  m.goal = lp::Goal::kMinimize;
  const int x = m.add_variable(0.0, lp::kInfinity, 1.0);
  const int y = m.add_variable(0.0, lp::kInfinity, 1.0);
  const int r0 = m.add_constraint(lp::Sense::kEqual, 2.0);
  const int r1 = m.add_constraint(lp::Sense::kEqual, 2.0);
  m.set_coefficient(r0, x, 1.0);
  m.set_coefficient(r1, x, 1.0);  // r0 and r1 both pinned by x
  m.set_coefficient(r1, y, 0.0);
  lp::Basis basis;
  const lp::Solution first = lp::solve(m, {}, &basis);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(basis.rows, m.num_constraints()) << "basis must stay exportable";

  m.constraint(0).rhs = 3.0;
  m.constraint(1).rhs = 3.0;
  const lp::Solution warm = lp::solve(m, {}, &basis);
  ASSERT_EQ(warm.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(warm.objective, 3.0);
  (void)y;
}

TEST(SimplexWarm, BoundTighteningRepairsInsteadOfColdStart) {
  // Branch-and-bound's shape: the relaxation of
  //   min -8 x0 - 11 x1 - 6 x2  s.t.  5 x0 + 7 x1 + 4 x2 <= 14,
  //                                   3 x0 + 2 x1 + 5 x2 <= 7,  0 <= x <= 1
  // ends with x2 = 0.4 basic; the down branch fixes x2 to 0 and re-solves
  // from that basis, which the new bound leaves primal infeasible.
  lp::Model m;
  m.goal = lp::Goal::kMinimize;
  const int x0 = m.add_variable(0.0, 1.0, -8.0);
  const int x1 = m.add_variable(0.0, 1.0, -11.0);
  const int x2 = m.add_variable(0.0, 1.0, -6.0);
  const int r0 = m.add_constraint(lp::Sense::kLessEqual, 14.0);
  const int r1 = m.add_constraint(lp::Sense::kLessEqual, 7.0);
  m.set_coefficient(r0, x0, 5.0);
  m.set_coefficient(r0, x1, 7.0);
  m.set_coefficient(r0, x2, 4.0);
  m.set_coefficient(r1, x0, 3.0);
  m.set_coefficient(r1, x1, 2.0);
  m.set_coefficient(r1, x2, 5.0);
  lp::Basis basis;
  const lp::Solution root = lp::solve(m, {}, &basis);
  ASSERT_EQ(root.status, lp::SolveStatus::kOptimal);
  ASSERT_NEAR(root.x[static_cast<std::size_t>(x2)], 0.4, 1e-9);

  m.variable(x2).upper = 0.0;
  const lp::Solution warm = lp::solve(m, {}, &basis);
  const lp::Solution cold = lp::solve(m);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
  EXPECT_LT(warm.iterations, cold.iterations)
      << "a bound change must repair the previous basis, not discard it";
}

}  // namespace
