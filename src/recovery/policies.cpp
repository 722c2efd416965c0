#include "recovery/policies.hpp"

#include <algorithm>
#include <utility>

#include "graph/betweenness.hpp"

namespace netrec::recovery {

using heuristics::ScheduleStep;

namespace {

/// All currently broken elements, nodes first, id order.
std::vector<ScheduleStep> broken_in_list_order(const graph::Graph& g) {
  std::vector<ScheduleStep> out;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto id = static_cast<graph::NodeId>(n);
    if (g.node_broken(id)) out.push_back(heuristics::node_step(g, id));
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    if (g.edge_broken(id)) out.push_back(heuristics::edge_step(g, id));
  }
  return out;
}

void truncate_to_budget(std::vector<ScheduleStep>& steps, std::size_t budget) {
  if (steps.size() > budget) steps.resize(budget);
}

}  // namespace

// --- ReplayPolicy ------------------------------------------------------------

ReplayPolicy::ReplayPolicy(ReplayOptions options) : opt_(std::move(options)) {}

std::string ReplayPolicy::name() const {
  return opt_.schedule_order ? "replay" : "replay-list";
}

std::vector<ScheduleStep> ReplayPolicy::plan_stage(
    const core::RecoveryProblem& problem, std::size_t /*stage*/,
    std::size_t budget, util::Rng& /*rng*/) {
  if (!planned_) {
    planned_ = true;
    plan_ = core::IspSolver(problem, opt_.isp).solve();
    if (opt_.schedule_order) {
      queue_ = heuristics::schedule_repairs(problem, plan_).steps;
    } else {
      queue_.reserve(plan_.total_repairs());
      for (graph::NodeId n : plan_.repaired_nodes) {
        queue_.push_back(heuristics::node_step(problem.graph, n));
      }
      for (graph::EdgeId e : plan_.repaired_edges) {
        queue_.push_back(heuristics::edge_step(problem.graph, e));
      }
    }
  }
  std::vector<ScheduleStep> out;
  while (next_ < queue_.size() && out.size() < budget) {
    out.push_back(queue_[next_++]);
  }
  return out;
}

// --- ReplanPolicy ------------------------------------------------------------

ReplanPolicy::ReplanPolicy(core::IspOptions isp) : isp_(std::move(isp)) {}

std::vector<ScheduleStep> ReplanPolicy::plan_stage(
    const core::RecoveryProblem& problem, std::size_t /*stage*/,
    std::size_t budget, util::Rng& /*rng*/) {
  // Fresh one-shot solve on the current damage: ISP terminates immediately
  // (empty plan) once the demand routes on the working subgraph.
  const core::RecoverySolution plan = core::IspSolver(problem, isp_).solve();
  if (plan.total_repairs() == 0) return {};
  std::vector<ScheduleStep> out =
      heuristics::schedule_repairs(problem, plan).steps;
  truncate_to_budget(out, budget);
  return out;
}

// --- BetweennessGreedyPolicy -------------------------------------------------

std::vector<ScheduleStep> BetweennessGreedyPolicy::plan_stage(
    const core::RecoveryProblem& problem, std::size_t /*stage*/,
    std::size_t budget, util::Rng& /*rng*/) {
  const graph::Graph& g = problem.graph;
  if (!scored_) {
    scored_ = true;
    graph::ViewConfig config;
    config.length = [](graph::EdgeId) { return 1.0; };
    scores_ =
        graph::betweenness_centrality(graph::GraphView::build(g, config));
  }
  auto node_score = [this](graph::NodeId n) {
    return scores_[static_cast<std::size_t>(n)];
  };
  struct Scored {
    double score;
    ScheduleStep step;
  };
  std::vector<Scored> candidates;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto id = static_cast<graph::NodeId>(n);
    if (!g.node_broken(id)) continue;
    candidates.push_back({node_score(id), heuristics::node_step(g, id)});
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    if (!g.edge_broken(id)) continue;
    const auto [eu, ev] = g.edge_endpoints(id);
    const double score = 0.5 * (node_score(eu) + node_score(ev));
    candidates.push_back({score, heuristics::edge_step(g, id)});
  }
  // Stable: ties settle nodes-then-edges in id order (the insertion order).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });
  std::vector<ScheduleStep> out;
  for (Scored& c : candidates) {
    if (out.size() >= budget) break;
    out.push_back(std::move(c.step));
  }
  return out;
}

// --- ListOrderPolicy ---------------------------------------------------------

std::vector<ScheduleStep> ListOrderPolicy::plan_stage(
    const core::RecoveryProblem& problem, std::size_t /*stage*/,
    std::size_t budget, util::Rng& /*rng*/) {
  std::vector<ScheduleStep> out = broken_in_list_order(problem.graph);
  truncate_to_budget(out, budget);
  return out;
}

// --- RandomPolicy ------------------------------------------------------------

std::vector<ScheduleStep> RandomPolicy::plan_stage(
    const core::RecoveryProblem& problem, std::size_t /*stage*/,
    std::size_t budget, util::Rng& rng) {
  const std::vector<ScheduleStep> broken = broken_in_list_order(problem.graph);
  const std::size_t take = std::min(budget, broken.size());
  const auto picks = rng.sample_without_replacement(broken.size(), take);
  std::vector<ScheduleStep> out;
  out.reserve(take);
  for (std::size_t index : picks) out.push_back(broken[index]);
  return out;
}

}  // namespace netrec::recovery
