#include "heuristics/opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/isp.hpp"
#include "heuristics/local_search.hpp"
#include "lp/model.hpp"
#include "milp/branch_and_bound.hpp"
#include "steiner/steiner.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace netrec::heuristics {

namespace {
constexpr double kEps = 1e-9;

/// Builds the arc-flow MinR MILP (eq. 1 with disaggregated linking) and the
/// list of binary variable indices.  delta variables exist only for broken
/// elements; working elements are hard-wired usable.
struct MinrModel {
  lp::Model model;
  std::vector<int> integer_vars;
  std::vector<int> delta_of_edge;  ///< -1 when edge not broken
  std::vector<int> delta_of_node;  ///< -1 when node not broken
};

MinrModel build_minr_milp(const core::RecoveryProblem& problem) {
  const graph::Graph& g = problem.graph;
  MinrModel out;
  out.model.goal = lp::Goal::kMinimize;
  out.delta_of_edge.assign(g.num_edges(), -1);
  out.delta_of_node.assign(g.num_nodes(), -1);

  const int n_demands = static_cast<int>(problem.demands.size());
  const double total = problem.total_demand();

  // Demand endpoints are always used, so broken endpoints must be repaired:
  // fix their deltas at 1 (a presolve step that removes binaries).
  std::vector<char> endpoint(g.num_nodes(), 0);
  for (const auto& d : problem.demands) {
    if (d.amount <= kEps || d.source == d.target) continue;
    endpoint[static_cast<std::size_t>(d.source)] = 1;
    endpoint[static_cast<std::size_t>(d.target)] = 1;
  }

  // Flow variables f[h][e][dir]: dir 0 = u->v, 1 = v->u.  No single
  // commodity ever needs more than d_h on an edge, so cap the variable.
  auto flow_var = [&](int h, std::size_t e, int dir) {
    return (static_cast<int>(e) * 2 + dir) * n_demands + h;
  };
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const double cap = g.edge_capacity(static_cast<graph::EdgeId>(e));
    for (int dir = 0; dir < 2; ++dir) {
      for (int h = 0; h < n_demands; ++h) {
        const double d =
            problem.demands[static_cast<std::size_t>(h)].amount;
        out.model.add_variable(0.0, std::min(cap, d), 0.0);
      }
    }
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (g.edge_broken(static_cast<graph::EdgeId>(e))) {
      out.delta_of_edge[e] = out.model.add_variable(
          0.0, 1.0, g.edge_repair_cost(static_cast<graph::EdgeId>(e)));
      out.integer_vars.push_back(out.delta_of_edge[e]);
    }
  }
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (g.node_broken(static_cast<graph::NodeId>(n))) {
      const double fixed_low = endpoint[n] ? 1.0 : 0.0;
      out.delta_of_node[n] = out.model.add_variable(
          fixed_low, 1.0, g.node_repair_cost(static_cast<graph::NodeId>(n)));
      if (!endpoint[n]) out.integer_vars.push_back(out.delta_of_node[n]);
    }
  }

  // Capacity + edge-activation rows.  Big-M tightening: flow across an edge
  // never exceeds the total demand, so min(c, D) multiplies delta.
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const double cap = g.edge_capacity(static_cast<graph::EdgeId>(e));
    const double big_m = std::min(cap, total);
    const int row = out.model.add_constraint(
        lp::Sense::kLessEqual, out.delta_of_edge[e] >= 0 ? 0.0 : cap);
    for (int h = 0; h < n_demands; ++h) {
      out.model.set_coefficient(row, flow_var(h, e, 0), 1.0);
      out.model.set_coefficient(row, flow_var(h, e, 1), 1.0);
    }
    if (out.delta_of_edge[e] >= 0) {
      out.model.set_coefficient(row, out.delta_of_edge[e], -big_m);
      // Per-demand disaggregation: f_h(e) <= min(c, d_h) * delta_e.  Much
      // tighter than the aggregate row when one demand saturates the edge.
      for (int h = 0; h < n_demands; ++h) {
        const double d = problem.demands[static_cast<std::size_t>(h)].amount;
        const int drow = out.model.add_constraint(lp::Sense::kLessEqual, 0.0);
        out.model.set_coefficient(drow, flow_var(h, e, 0), 1.0);
        out.model.set_coefficient(drow, flow_var(h, e, 1), 1.0);
        out.model.set_coefficient(drow, out.delta_of_edge[e],
                                  -std::min(cap, d));
      }
    }
  }
  // Node-activation rows (disaggregated, stronger than the eta_max form):
  // for each broken node i and incident edge e: sum_h flow(e) <= M delta_i.
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (out.delta_of_node[n] < 0 || endpoint[n]) continue;
    for (graph::EdgeId e :
         g.incident_edges(static_cast<graph::NodeId>(n))) {
      const int row = out.model.add_constraint(lp::Sense::kLessEqual, 0.0);
      for (int h = 0; h < n_demands; ++h) {
        out.model.set_coefficient(
            row, flow_var(h, static_cast<std::size_t>(e), 0), 1.0);
        out.model.set_coefficient(
            row, flow_var(h, static_cast<std::size_t>(e), 1), 1.0);
      }
      out.model.set_coefficient(row, out.delta_of_node[n],
                                -std::min(g.edge_capacity(e), total));
    }
  }
  // Endpoint cut rows: the edges at s_h/t_h must jointly open enough
  // activated capacity for d_h (valid inequalities; they sharpen the root).
  for (int h = 0; h < n_demands; ++h) {
    const mcf::Demand& d = problem.demands[static_cast<std::size_t>(h)];
    if (d.amount <= kEps || d.source == d.target) continue;
    for (graph::NodeId end : {d.source, d.target}) {
      const int row =
          out.model.add_constraint(lp::Sense::kGreaterEqual, d.amount);
      for (graph::EdgeId e : g.incident_edges(end)) {
        const double cap = std::min(g.edge_capacity(e), d.amount);
        const int delta = out.delta_of_edge[static_cast<std::size_t>(e)];
        if (delta >= 0) {
          out.model.set_coefficient(row, delta, cap);
        } else {
          // Working edge: permanently available capacity.
          out.model.constraint(row).rhs -= cap;
        }
      }
    }
  }
  // Flow conservation per (demand, node).
  for (int h = 0; h < n_demands; ++h) {
    const mcf::Demand& d = problem.demands[static_cast<std::size_t>(h)];
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      const auto node = static_cast<graph::NodeId>(n);
      double b = 0.0;
      if (node == d.source) b += d.amount;
      if (node == d.target) b -= d.amount;
      if (d.source == d.target) b = 0.0;
      const int row = out.model.add_constraint(lp::Sense::kEqual, b);
      for (graph::EdgeId e : g.incident_edges(node)) {
        const int out_dir = g.edge_u(e) == node ? 0 : 1;
        out.model.set_coefficient(
            row, flow_var(h, static_cast<std::size_t>(e), out_dir), 1.0);
        out.model.set_coefficient(
            row, flow_var(h, static_cast<std::size_t>(e), 1 - out_dir), -1.0);
      }
    }
  }
  return out;
}

}  // namespace

bool is_connectivity_only(const core::RecoveryProblem& problem) {
  double min_cap = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < problem.graph.num_edges(); ++e) {
    const double cap = problem.graph.edge_capacity(static_cast<graph::EdgeId>(e));
    if (cap > kEps) min_cap = std::min(min_cap, cap);
  }
  return problem.total_demand() <= min_cap + kEps;
}

OptOutcome solve_opt(const core::RecoveryProblem& problem,
                     const OptOptions& options,
                     const core::RecoverySolution* warm) {
  util::Timer timer;
  OptOutcome outcome;
  outcome.lower_bound = -std::numeric_limits<double>::infinity();

  // Incumbent: caller's warm solution or a fresh ISP run, diversified with
  // randomised-metric restarts and tightened by local search.
  core::RecoverySolution incumbent;
  if (warm != nullptr) {
    incumbent = *warm;
  } else {
    core::IspSolver isp(problem);
    incumbent = isp.solve();
  }
  auto better = [](const core::RecoverySolution& a,
                   const core::RecoverySolution& b) {
    const bool a_full = a.satisfied_fraction >= 1.0 - 1e-6;
    const bool b_full = b.satisfied_fraction >= 1.0 - 1e-6;
    if (a_full != b_full) return a_full;
    if (a_full) return a.repair_cost < b.repair_cost - 1e-9;
    return a.satisfied_fraction > b.satisfied_fraction + 1e-9;
  };
  for (std::size_t restart = 0; restart < options.isp_restarts; ++restart) {
    core::IspOptions iopt;
    iopt.length_jitter = 0.35;
    iopt.jitter_seed = 0x9e37 + restart * 7919;
    core::IspSolver isp(problem, iopt);
    const core::RecoverySolution candidate = isp.solve();
    if (better(candidate, incumbent)) incumbent = candidate;
  }
  if (incumbent.satisfied_fraction >= 1.0 - 1e-6) {
    incumbent = reduce_repairs(problem, incumbent);
  }
  incumbent.algorithm = "OPT";
  outcome.solution = incumbent;
  outcome.engine = "fallback";

  // Engine 1: exact Steiner forest for connectivity-only instances.
  if (is_connectivity_only(problem)) {
    const graph::Graph& g = problem.graph;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    for (const auto& d : problem.demands) {
      if (d.amount > kEps && d.source != d.target) {
        pairs.emplace_back(d.source, d.target);
      }
    }
    const auto forest = steiner::steiner_forest(
        g, pairs,
        [&g](graph::EdgeId e) {
          return g.edge_broken(e) ? g.edge_repair_cost(e) : 0.0;
        },
        [&g](graph::NodeId n) {
          return g.node_broken(n) ? g.node_repair_cost(n) : 0.0;
        },
        [&g](graph::EdgeId e) { return g.edge_capacity(e) > kEps; });
    if (forest.solved) {
      core::RecoverySolution exact;
      exact.algorithm = "OPT";
      for (graph::NodeId n : forest.nodes) {
        if (g.node_broken(n)) exact.repaired_nodes.push_back(n);
      }
      for (graph::EdgeId e : forest.edges) {
        if (g.edge_broken(e)) exact.repaired_edges.push_back(e);
      }
      core::score_solution(problem, exact);
      exact.wall_seconds = timer.elapsed_seconds();
      // Trust but verify: the forest must satisfy the demand.
      if (exact.satisfied_fraction >= 1.0 - 1e-6) {
        outcome.solution = exact;
        outcome.proven_optimal = true;
        outcome.lower_bound = exact.repair_cost;
        outcome.engine = "steiner";
        return outcome;
      }
      NETREC_LOG(kWarn) << "OPT: steiner forest failed verification; "
                           "falling through to MILP";
    }
  }

  // Engine 2: branch-and-bound on the arc-flow MILP.
  if (options.time_limit_seconds > 0.0 && !problem.demands.empty()) {
    MinrModel minr = build_minr_milp(problem);
    milp::MilpSolver solver(
        std::move(minr.model), std::move(minr.integer_vars),
        {.time_limit_seconds = options.time_limit_seconds});
    if (incumbent.satisfied_fraction >= 1.0 - 1e-6) {
      // +tol so an equally-good MILP solution is still accepted.
      solver.set_cutoff(incumbent.repair_cost + 1e-6);
    }
    const milp::MilpResult result = solver.solve();
    outcome.lower_bound = result.bound;

    if (result.feasible && !result.x.empty()) {
      core::RecoverySolution milp_solution;
      milp_solution.algorithm = "OPT";
      for (std::size_t e = 0; e < problem.graph.num_edges(); ++e) {
        const int var = minr.delta_of_edge[e];
        if (var >= 0 && result.x[static_cast<std::size_t>(var)] > 0.5) {
          milp_solution.repaired_edges.push_back(
              static_cast<graph::EdgeId>(e));
        }
      }
      for (std::size_t n = 0; n < problem.graph.num_nodes(); ++n) {
        const int var = minr.delta_of_node[n];
        if (var >= 0 && result.x[static_cast<std::size_t>(var)] > 0.5) {
          milp_solution.repaired_nodes.push_back(
              static_cast<graph::NodeId>(n));
        }
      }
      core::score_solution(problem, milp_solution);
      if (milp_solution.satisfied_fraction >= 1.0 - 1e-6 &&
          (outcome.solution.satisfied_fraction < 1.0 - 1e-6 ||
           milp_solution.repair_cost < outcome.solution.repair_cost - 1e-9)) {
        outcome.solution = milp_solution;
        outcome.engine = "milp";
      }
    }
    // Optimality proof: either the tree closed on a better-or-equal MILP
    // solution, or it closed under the incumbent cutoff (incumbent optimal).
    if (result.proven_optimal ||
        (!result.feasible &&
         result.bound >= outcome.solution.repair_cost - 1e-6)) {
      outcome.proven_optimal =
          outcome.solution.satisfied_fraction >= 1.0 - 1e-6;
      if (outcome.proven_optimal) outcome.engine = "milp";
    }
    if (result.bound >= outcome.solution.repair_cost - 1e-6 &&
        outcome.solution.satisfied_fraction >= 1.0 - 1e-6) {
      outcome.proven_optimal = true;
    }
  }

  outcome.solution.wall_seconds = timer.elapsed_seconds();
  return outcome;
}

}  // namespace netrec::heuristics
