#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netrec::lp {

int Model::add_variable(double lower, double upper, double cost) {
  if (lower > upper) {
    throw std::invalid_argument("Model: variable lower bound exceeds upper");
  }
  Variable v;
  v.lower = lower;
  v.upper = upper;
  v.cost = cost;
  variables_.push_back(std::move(v));
  return static_cast<int>(variables_.size() - 1);
}

int Model::add_constraint(Sense sense, double rhs) {
  constraints_.push_back(Constraint{sense, rhs});
  return static_cast<int>(constraints_.size() - 1);
}

void Model::set_coefficient(int row, int var, double value) {
  if (row < 0 || row >= num_constraints()) {
    throw std::invalid_argument("Model: row index out of range");
  }
  if (var < 0 || var >= num_variables()) {
    throw std::invalid_argument("Model: variable index out of range");
  }
  if (value == 0.0) return;
  auto& column = variables_[static_cast<std::size_t>(var)].column;
  for (const Entry& entry : column) {
    if (entry.row == row) {
      throw std::invalid_argument("Model: coefficient set twice");
    }
  }
  column.push_back(Entry{row, value});
  // Keep columns sorted so dot products stream in row order.
  std::sort(column.begin(), column.end(),
            [](const Entry& a, const Entry& b) { return a.row < b.row; });
}

std::vector<double> Model::row_activity(const std::vector<double>& x) const {
  if (x.size() != variables_.size()) {
    throw std::invalid_argument("Model: assignment size mismatch");
  }
  std::vector<double> activity(constraints_.size(), 0.0);
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    if (x[v] == 0.0) continue;
    for (const Entry& entry : variables_[v].column) {
      activity[static_cast<std::size_t>(entry.row)] += entry.value * x[v];
    }
  }
  return activity;
}

double Model::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    total += variables_[v].cost * x[v];
  }
  return total;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    if (x[v] < variables_[v].lower - tol) return false;
    if (x[v] > variables_[v].upper + tol) return false;
  }
  const auto activity = row_activity(x);
  for (std::size_t r = 0; r < constraints_.size(); ++r) {
    const Constraint& c = constraints_[r];
    switch (c.sense) {
      case Sense::kLessEqual:
        if (activity[r] > c.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (activity[r] < c.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(activity[r] - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace netrec::lp
