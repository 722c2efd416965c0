#include "lp/model.hpp"

#include <algorithm>
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

double Model::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    total += variables_[v].cost * x[v];
  }
  return total;
}

}  // namespace netrec::lp
