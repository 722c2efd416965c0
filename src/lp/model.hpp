// Linear program model container.
//
// Holds min/max c'x subject to row constraints (<=, =, >=) and variable
// bounds, with columns stored sparse.  The same Model type feeds the simplex
// solver directly, the column-generation MCF solver (which appends path
// variables between solves) and the MILP branch-and-bound (which tightens
// variable bounds per node).
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace netrec::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kLessEqual, kEqual, kGreaterEqual };
enum class Goal { kMinimize, kMaximize };

struct Entry {
  int row = 0;
  double value = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double cost = 0.0;
  std::vector<Entry> column;  ///< sparse coefficients, sorted by row
};

struct Constraint {
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  Goal goal = Goal::kMinimize;

  /// Adds a variable; returns its dense index.
  int add_variable(double lower, double upper, double cost);

  /// Adds a constraint row; returns its dense index.
  int add_constraint(Sense sense, double rhs);

  /// Sets (accumulates is an error; set once) coefficient A[row][var].
  void set_coefficient(int row, int var, double value);

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const Variable& variable(int v) const {
    return variables_[static_cast<std::size_t>(v)];
  }
  Variable& variable(int v) { return variables_[static_cast<std::size_t>(v)]; }
  const Constraint& constraint(int r) const {
    return constraints_[static_cast<std::size_t>(r)];
  }
  Constraint& constraint(int r) {
    return constraints_[static_cast<std::size_t>(r)];
  }

  /// Objective value c'x (in the model's own goal orientation).
  double objective_value(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace netrec::lp
