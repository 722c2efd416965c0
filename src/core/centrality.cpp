#include "core/centrality.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "graph/dijkstra.hpp"
#include "graph/simple_paths.hpp"
#include "graph/view.hpp"
#include "util/thread_pool.hpp"

namespace netrec::core {

namespace {
/// Cap on successive shortest paths collected per demand.
constexpr std::size_t kMaxPathsPerDemand = 64;
}  // namespace

CentralityResult::CentralityResult(std::size_t num_nodes,
                                   std::size_t num_demands)
    : score_(num_nodes, 0.0),
      contributors_(num_nodes),
      demand_paths_(num_demands) {}

double CentralityResult::capacity_through(int demand, graph::NodeId v,
                                          const graph::Graph& g) const {
  const DemandPathSet& set = demand_paths_[static_cast<std::size_t>(demand)];
  double total = 0.0;
  for (std::size_t p = 0; p < set.paths.size(); ++p) {
    for (graph::NodeId n : set.paths[p].nodes(g)) {
      if (n == v) {
        total += set.capacities[p];
        break;
      }
    }
  }
  return total;
}

std::vector<graph::NodeId> CentralityResult::ranking() const {
  std::vector<graph::NodeId> order(score_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](graph::NodeId a, graph::NodeId b) {
                     return score_[static_cast<std::size_t>(a)] >
                            score_[static_cast<std::size_t>(b)];
                   });
  return order;
}

CentralityResult demand_based_centrality(
    const graph::GraphView& view, const std::vector<mcf::Demand>& demands,
    util::ThreadPool* pool) {
  const graph::Graph& g = view.graph();
  CentralityResult result(g.num_nodes(), demands.size());

  // One shared first-path tree per source that two or more demands start
  // from (their first Dijkstras see identical inputs).  Each tree is a pure
  // function of (view, source) and stops once all of that source's targets
  // have settled — only their paths are read.  The set is built up front —
  // in first-appearance order, fanning out on the pool when one is
  // available — before the demand sweep reads it.
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> targets_of;
  std::vector<graph::NodeId> shared_sources;
  for (const mcf::Demand& d : demands) {
    if (d.amount <= 1e-9 || d.source == d.target) continue;
    std::vector<graph::NodeId>& targets = targets_of[d.source];
    targets.push_back(d.target);
    if (targets.size() == 2) shared_sources.push_back(d.source);
  }
  std::vector<graph::ShortestPathTree> trees(shared_sources.size());
  const auto build_tree = [&](std::size_t i) {
    // Read-only map access: the workers share targets_of.
    trees[i] = graph::dijkstra_residual_to(
        view, shared_sources[i], targets_of.at(shared_sources[i]),
        view.edge_capacities());
  };
  util::ThreadPool::for_each(pool, shared_sources.size(), build_tree);
  std::unordered_map<graph::NodeId, graph::ShortestPathTree> source_trees;
  for (std::size_t i = 0; i < shared_sources.size(); ++i) {
    source_trees.emplace(shared_sources[i], std::move(trees[i]));
  }

  // Per-demand P̂* enumeration into pre-assigned slots: each demand's
  // successive-shortest-path sweep reads only the view and the (now
  // immutable) shared trees, so the slots are independent and the fan-out
  // changes nothing about any slot's content.
  std::vector<graph::SuccessivePathsResult> selected(demands.size());
  const auto enumerate = [&](std::size_t h) {
    const mcf::Demand& d = demands[h];
    if (d.amount <= 1e-9 || d.source == d.target) return;
    const auto it = source_trees.find(d.source);
    selected[h] = graph::successive_shortest_paths(
        view, d.source, d.target, d.amount, kMaxPathsPerDemand,
        it == source_trees.end() ? nullptr : &it->second);
  };
  util::ThreadPool::for_each(pool, demands.size(), enumerate);

  // Serial merge in demand order: the eq.-(3) score additions happen in
  // exactly the order the all-serial evaluation performs them.
  for (std::size_t h = 0; h < demands.size(); ++h) {
    const mcf::Demand& d = demands[h];
    if (d.amount <= 1e-9 || d.source == d.target) continue;
    graph::SuccessivePathsResult& sp = selected[h];
    if (sp.paths.empty() || sp.total_capacity <= 1e-12) continue;

    DemandPathSet& set =
        result.mutable_demand_paths()[static_cast<std::size_t>(h)];
    set.paths = std::move(sp.paths);
    set.capacities = std::move(sp.capacities);
    set.total_capacity = sp.total_capacity;

    // Eq. (3): share of d proportional to each path's selection capacity.
    std::vector<char> counted(g.num_nodes(), 0);
    std::vector<graph::NodeId> touched;
    for (std::size_t p = 0; p < set.paths.size(); ++p) {
      const double share =
          set.capacities[p] / set.total_capacity * d.amount;
      for (graph::NodeId v : set.paths[p].nodes(g)) {
        result.mutable_scores()[static_cast<std::size_t>(v)] += share;
        if (!counted[static_cast<std::size_t>(v)]) {
          counted[static_cast<std::size_t>(v)] = 1;
          touched.push_back(v);
        }
      }
    }
    for (graph::NodeId v : touched) {
      result.mutable_contributors()[static_cast<std::size_t>(v)].push_back(
          static_cast<int>(h));
    }
  }
  return result;
}

}  // namespace netrec::core
