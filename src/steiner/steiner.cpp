#include "steiner/steiner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "graph/view.hpp"
#include "util/log.hpp"

namespace netrec::steiner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Hard cap on distinct terminals (the DP is exponential in this).
constexpr std::size_t kMaxTerminals = 16;

/// Dreyfus-Wagner table with reconstruction choices.
struct DwTable {
  int n = 0;
  int t = 0;
  std::vector<double> dp;  ///< dp[mask * n + v]

  enum class Choice : unsigned char { kNone, kRoot, kGrow, kMerge };
  struct Step {
    Choice choice = Choice::kNone;
    int param = -1;  ///< edge id for kGrow, submask for kMerge
  };
  std::vector<Step> step;  ///< parallel to dp

  double& at(int mask, int v) {
    return dp[static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(v)];
  }
  double get(int mask, int v) const {
    return dp[static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(v)];
  }
  Step& step_at(int mask, int v) {
    return step[static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
  const Step& step_get(int mask, int v) const {
    return step[static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
};

/// Builds the full DW table over all terminals.  Path costs count edge costs
/// plus the node cost of every path node (so trees price nodes exactly once).
///
/// The 2^t grow passes historically paid an edge_ok/edge_cost std::function
/// call per relaxation; one CSR snapshot (filter + edge costs flattened) and
/// a flat node-cost array now serve every mask — the same amortisation the
/// ISP loop gets from its ViewCache, without mutations to invalidate over.
DwTable build_table(const graph::Graph& g,
                    const std::vector<graph::NodeId>& terminals,
                    const graph::EdgeWeight& edge_cost,
                    const NodeCost& node_cost,
                    const graph::EdgeFilter& edge_ok) {
  graph::ViewConfig view_config;
  view_config.edge_ok = edge_ok;
  view_config.length = edge_cost;
  const graph::GraphView view = graph::GraphView::build(g, view_config);
  std::vector<double> flat_node_cost(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    flat_node_cost[v] = node_cost(static_cast<graph::NodeId>(v));
  }

  DwTable table;
  table.n = static_cast<int>(g.num_nodes());
  table.t = static_cast<int>(terminals.size());
  const int masks = 1 << table.t;
  table.dp.assign(
      static_cast<std::size_t>(masks) * static_cast<std::size_t>(table.n),
      kInf);
  table.step.assign(table.dp.size(), DwTable::Step{});

  for (int i = 0; i < table.t; ++i) {
    const int mask = 1 << i;
    table.at(mask, terminals[static_cast<std::size_t>(i)]) =
        flat_node_cost[static_cast<std::size_t>(
            terminals[static_cast<std::size_t>(i)])];
    table.step_at(mask, terminals[static_cast<std::size_t>(i)]).choice =
        DwTable::Choice::kRoot;
  }

  using Item = std::pair<double, graph::NodeId>;
  for (int mask = 1; mask < masks; ++mask) {
    // Merge step: combine two subtrees anchored at the same node.
    for (int sub = (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask) {
      if (sub < (mask ^ sub)) continue;  // each split once
      for (int v = 0; v < table.n; ++v) {
        const double a = table.get(sub, v);
        const double b = table.get(mask ^ sub, v);
        if (a >= kInf || b >= kInf) continue;
        const double cost =
            a + b - flat_node_cost[static_cast<std::size_t>(v)];
        if (cost < table.at(mask, v)) {
          table.at(mask, v) = cost;
          table.step_at(mask, v) = {DwTable::Choice::kMerge, sub};
        }
      }
    }
    // Grow step: extend the anchor along shortest paths (multi-source
    // Dijkstra seeded with the current dp row) over the flat CSR arcs.
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    for (int v = 0; v < table.n; ++v) {
      if (table.get(mask, v) < kInf) {
        heap.emplace(table.get(mask, v), static_cast<graph::NodeId>(v));
      }
    }
    while (!heap.empty()) {
      const auto [dist, at] = heap.top();
      heap.pop();
      if (dist > table.get(mask, at)) continue;
      const graph::ArcId end = view.arcs_end(at);
      for (graph::ArcId a = view.arcs_begin(at); a < end; ++a) {
        const graph::NodeId to = view.arc_target(a);
        const double candidate =
            dist + view.arc_length(a) +
            flat_node_cost[static_cast<std::size_t>(to)];
        if (candidate < table.at(mask, to)) {
          table.at(mask, to) = candidate;
          table.step_at(mask, to) = {DwTable::Choice::kGrow,
                                     static_cast<int>(view.arc_edge(a))};
          heap.emplace(candidate, to);
        }
      }
    }
  }
  return table;
}

/// Walks the reconstruction steps, collecting tree edges.
void collect_edges(const graph::Graph& g, const DwTable& table, int mask,
                   graph::NodeId v, std::set<graph::EdgeId>& edges) {
  while (true) {
    const DwTable::Step& step = table.step_get(mask, v);
    switch (step.choice) {
      case DwTable::Choice::kRoot:
      case DwTable::Choice::kNone:
        return;
      case DwTable::Choice::kGrow: {
        const auto e = static_cast<graph::EdgeId>(step.param);
        edges.insert(e);
        v = g.other_endpoint(e, v);
        break;  // continue walking within the same mask
      }
      case DwTable::Choice::kMerge: {
        collect_edges(g, table, step.param, v, edges);
        mask ^= step.param;
        break;  // continue with the complement subtree at the same anchor
      }
    }
  }
}

SteinerForestResult extract(const graph::Graph& g, const DwTable& table,
                            const std::vector<int>& group_masks) {
  SteinerForestResult result;
  std::set<graph::EdgeId> edges;
  std::set<graph::NodeId> nodes;
  double cost = 0.0;
  for (int mask : group_masks) {
    int best_v = -1;
    double best = kInf;
    for (int v = 0; v < table.n; ++v) {
      if (table.get(mask, v) < best) {
        best = table.get(mask, v);
        best_v = v;
      }
    }
    if (best_v < 0 || best >= kInf) return result;  // disconnected
    cost += best;
    collect_edges(g, table, mask, static_cast<graph::NodeId>(best_v), edges);
    nodes.insert(static_cast<graph::NodeId>(best_v));
  }
  for (graph::EdgeId e : edges) {
    nodes.insert(g.edge_u(e));
    nodes.insert(g.edge_v(e));
  }
  result.solved = true;
  result.cost = cost;
  result.edges.assign(edges.begin(), edges.end());
  result.nodes.assign(nodes.begin(), nodes.end());
  return result;
}

}  // namespace

SteinerForestResult steiner_forest(
    const graph::Graph& g,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs,
    const graph::EdgeWeight& edge_cost, const NodeCost& node_cost,
    const graph::EdgeFilter& edge_ok) {
  SteinerForestResult result;
  if (pairs.empty()) {
    result.solved = true;
    return result;
  }

  // Distinct terminals, and each pair's terminal-index pair.
  std::vector<graph::NodeId> terminals;
  std::map<graph::NodeId, int> index_of;
  auto intern = [&](graph::NodeId v) {
    auto it = index_of.find(v);
    if (it != index_of.end()) return it->second;
    const int idx = static_cast<int>(terminals.size());
    terminals.push_back(v);
    index_of.emplace(v, idx);
    return idx;
  };
  std::vector<std::pair<int, int>> pair_idx;
  for (const auto& [a, b] : pairs) {
    if (a == b) continue;
    pair_idx.emplace_back(intern(a), intern(b));
  }
  if (pair_idx.empty()) {
    result.solved = true;
    return result;
  }
  if (terminals.size() > kMaxTerminals) {
    NETREC_LOG(kWarn) << "steiner_forest: " << terminals.size()
                      << " terminals exceed the DP limit";
    return result;
  }

  const DwTable table =
      build_table(g, terminals, edge_cost, node_cost, edge_ok);

  // Terminal mask of a pair-group.
  const int p = static_cast<int>(pair_idx.size());
  std::vector<int> terminal_mask(static_cast<std::size_t>(1) << p, 0);
  for (int gm = 1; gm < (1 << p); ++gm) {
    const int low = gm & -gm;
    const int bit = static_cast<int>(std::log2(low));
    terminal_mask[static_cast<std::size_t>(gm)] =
        terminal_mask[static_cast<std::size_t>(gm ^ low)] |
        (1 << pair_idx[static_cast<std::size_t>(bit)].first) |
        (1 << pair_idx[static_cast<std::size_t>(bit)].second);
  }
  auto group_cost = [&](int gm) {
    const int tm = terminal_mask[static_cast<std::size_t>(gm)];
    double best = kInf;
    for (int v = 0; v < table.n; ++v) best = std::min(best, table.get(tm, v));
    return best;
  };

  // Partition DP over pair masks.
  std::vector<double> f(static_cast<std::size_t>(1) << p, kInf);
  std::vector<int> choice(static_cast<std::size_t>(1) << p, 0);
  f[0] = 0.0;
  for (int mask = 1; mask < (1 << p); ++mask) {
    const int low = mask & -mask;
    for (int sub = mask; sub > 0; sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;  // group must contain the lowest pair
      const double c = group_cost(sub);
      if (c >= kInf) continue;
      const double rest = f[static_cast<std::size_t>(mask ^ sub)];
      if (rest >= kInf) continue;
      if (c + rest < f[static_cast<std::size_t>(mask)]) {
        f[static_cast<std::size_t>(mask)] = c + rest;
        choice[static_cast<std::size_t>(mask)] = sub;
      }
    }
  }
  const int full = (1 << p) - 1;
  if (f[static_cast<std::size_t>(full)] >= kInf) return result;

  std::vector<int> groups;
  for (int mask = full; mask != 0;) {
    const int sub = choice[static_cast<std::size_t>(mask)];
    groups.push_back(terminal_mask[static_cast<std::size_t>(sub)]);
    mask ^= sub;
  }
  result = extract(g, table, groups);
  return result;
}

}  // namespace netrec::steiner
