#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace netrec::milp {

namespace {

/// A relaxation value this close to an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Nodes whose bound is within this of the incumbent are resolved; the
/// tree is proven optimal when (incumbent - bound) <= kGapAbs.
constexpr double kGapAbs = 1e-6;

struct BoundChange {
  int var;
  double lower;
  double upper;
};

struct Node {
  std::vector<BoundChange> changes;  ///< path from root
  double parent_bound;               ///< LP bound of the parent (ordering)
  long id;                           ///< tie-break: older nodes first (DFS-ish)
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.parent_bound != b.parent_bound) {
      return a.parent_bound > b.parent_bound;  // best bound first
    }
    return a.id < b.id;  // newer (deeper) first -> dive
  }
};

}  // namespace

MilpSolver::MilpSolver(lp::Model model, std::vector<int> integer_vars,
                       MilpOptions options)
    : model_(std::move(model)),
      integer_vars_(std::move(integer_vars)),
      opt_(options) {
  if (model_.goal != lp::Goal::kMinimize) {
    throw std::invalid_argument("MilpSolver: minimisation models only");
  }
  for (int v : integer_vars_) {
    if (v < 0 || v >= model_.num_variables()) {
      throw std::invalid_argument("MilpSolver: integer var out of range");
    }
  }
}

void MilpSolver::set_cutoff(double objective) {
  has_cutoff_ = true;
  cutoff_ = objective;
}

MilpResult MilpSolver::solve() {
  util::Timer timer;
  MilpResult result;
  result.bound = -lp::kInfinity;

  double best_obj = has_cutoff_ ? cutoff_ : lp::kInfinity;
  std::vector<double> best_x;
  bool have_solution = false;

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  long next_id = 0;
  open.push(Node{{}, -lp::kInfinity, next_id++});
  lp::Basis shared_basis;

  auto apply = [&](const std::vector<BoundChange>& changes, bool redo) {
    // redo=true applies node bounds; redo=false restores root bounds.
    for (const BoundChange& c : changes) {
      auto& var = model_.variable(c.var);
      if (redo) {
        var.lower = c.lower;
        var.upper = c.upper;
      }
    }
  };
  // Root bounds snapshot for restoration.
  std::vector<std::pair<double, double>> root_bounds(
      static_cast<std::size_t>(model_.num_variables()));
  for (int v = 0; v < model_.num_variables(); ++v) {
    root_bounds[static_cast<std::size_t>(v)] = {model_.variable(v).lower,
                                                model_.variable(v).upper};
  }
  auto restore = [&]() {
    for (int v = 0; v < model_.num_variables(); ++v) {
      model_.variable(v).lower = root_bounds[static_cast<std::size_t>(v)].first;
      model_.variable(v).upper =
          root_bounds[static_cast<std::size_t>(v)].second;
    }
  };

  while (!open.empty()) {
    if (timer.elapsed_seconds() > opt_.time_limit_seconds ||
        result.nodes_explored >= opt_.max_nodes) {
      break;  // budget exhausted; the open frontier bounds the optimum
    }
    Node node = open.top();
    open.pop();

    // Bound-based prune without solving (resolved: cannot beat incumbent).
    if (have_solution && node.parent_bound >= best_obj - kGapAbs) {
      continue;
    }

    ++result.nodes_explored;
    apply(node.changes, true);
    // Warm-start from the last node's basis; the simplex repairs the rows
    // that this node's bounds leave infeasible instead of cold-starting.
    const lp::Solution relax = lp::solve(model_, {}, &shared_basis);
    restore();

    if (relax.status == lp::SolveStatus::kInfeasible) continue;
    if (relax.status == lp::SolveStatus::kUnbounded) {
      throw std::logic_error("MilpSolver: relaxation unbounded");
    }
    if (relax.status == lp::SolveStatus::kIterationLimit) {
      // Unresolved: push it back so the frontier bound stays sound, stop.
      open.push(node);
      break;
    }
    const double lp_obj = relax.objective;
    if (have_solution && lp_obj >= best_obj - kGapAbs) continue;

    // Find most fractional integer variable.
    int branch_var = -1;
    double branch_score = kIntegralityTol;
    for (int v : integer_vars_) {
      const double value = relax.x[static_cast<std::size_t>(v)];
      const double frac = value - std::floor(value);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > branch_score) {
        branch_score = dist;
        branch_var = v;
      }
    }

    if (branch_var < 0) {
      // Integral: new incumbent.
      if (!have_solution || lp_obj < best_obj) {
        best_obj = lp_obj;
        best_x = relax.x;
        // Snap integer values exactly.
        for (int v : integer_vars_) {
          best_x[static_cast<std::size_t>(v)] =
              std::round(best_x[static_cast<std::size_t>(v)]);
        }
        have_solution = true;
      }
      continue;
    }

    const double value = relax.x[static_cast<std::size_t>(branch_var)];
    const double floor_val = std::floor(value);
    // Apply node bounds relative to the ROOT bounds (changes accumulate).
    auto current_bounds = [&](int var) {
      double lo = root_bounds[static_cast<std::size_t>(var)].first;
      double hi = root_bounds[static_cast<std::size_t>(var)].second;
      for (const BoundChange& c : node.changes) {
        if (c.var == var) {
          lo = c.lower;
          hi = c.upper;
        }
      }
      return std::pair<double, double>{lo, hi};
    };
    const auto [lo, hi] = current_bounds(branch_var);

    Node down = node;
    down.changes.push_back(
        BoundChange{branch_var, lo, std::min(hi, floor_val)});
    down.parent_bound = lp_obj;
    down.id = next_id++;
    Node up = node;
    up.changes.push_back(
        BoundChange{branch_var, std::max(lo, floor_val + 1.0), hi});
    up.parent_bound = lp_obj;
    up.id = next_id++;
    // Push the side nearer the fractional value last so it pops first among
    // equal bounds (diving heuristic).
    const bool prefer_up = value - floor_val > 0.5;
    if (prefer_up) {
      open.push(down);
      open.push(up);
    } else {
      open.push(up);
      open.push(down);
    }
  }

  result.feasible = have_solution;
  result.objective = best_obj;
  result.x = std::move(best_x);
  if (open.empty()) {
    // Tree closed: every node was resolved against the incumbent.
    result.proven_optimal = have_solution;
    result.bound = have_solution ? best_obj : lp::kInfinity;
  } else {
    // Best-first order: the top of the open queue is the least lower bound.
    result.bound = open.top().parent_bound;
    result.proven_optimal =
        have_solution && result.bound >= best_obj - kGapAbs;
  }
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace netrec::milp
