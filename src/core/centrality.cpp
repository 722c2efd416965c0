#include "core/centrality.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
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

  // Demands grouped by source, in first-appearance order.  Demands sharing
  // a source reuse one first-path tree (their first Dijkstras see identical
  // inputs); the tree is a pure function of (view, source) and stops once
  // all of the group's targets have settled — only their paths are read.
  std::unordered_map<graph::NodeId, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t h = 0; h < demands.size(); ++h) {
    const mcf::Demand& d = demands[h];
    if (d.amount <= 1e-9 || d.source == d.target) continue;
    const auto [it, fresh] = group_of.try_emplace(d.source, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(h);
  }

  // One task per source group: its shared tree (when two or more demands
  // start there), then each member's P̂* enumeration into the demand's
  // pre-assigned slot.  A task reads only the view and its own tree, so
  // the slots are independent, and no enumeration waits for another
  // group's tree.
  std::vector<graph::SuccessivePathsResult> selected(demands.size());
  const auto enumerate_group = [&](std::size_t gi) {
    const std::vector<std::size_t>& members = groups[gi];
    const graph::NodeId source = demands[members.front()].source;
    std::optional<graph::ShortestPathTree> tree;
    if (members.size() >= 2) {
      std::vector<graph::NodeId> targets;
      for (const std::size_t h : members) targets.push_back(demands[h].target);
      tree = graph::dijkstra_residual_to(view, source, targets,
                                         view.edge_capacities());
    }
    for (const std::size_t h : members) {
      const mcf::Demand& d = demands[h];
      selected[h] = graph::successive_shortest_paths(
          view, d.source, d.target, d.amount, kMaxPathsPerDemand,
          tree ? &*tree : nullptr);
    }
  };
  util::ThreadPool::for_each(pool, groups.size(), enumerate_group);

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
