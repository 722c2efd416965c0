#include "graph/maxflow.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace netrec::graph {

namespace {

constexpr double kFlowEps = 1e-9;

/// Compact residual network for Dinic.  Arcs are stored in pairs: arc i and
/// arc i^1 are mutual reverses.
struct Dinic {
  struct Arc {
    int to;
    double cap;
    EdgeId origin;  ///< original edge id (kInvalidEdge for reverse arcs)
    bool forward;   ///< true if oriented u->v of the original edge
  };

  explicit Dinic(int n) : head(static_cast<std::size_t>(n)) {}

  void add_undirected(int u, int v, double cap, EdgeId origin) {
    // Undirected edge: two arcs with full capacity, mutually residual.
    head[static_cast<std::size_t>(u)].push_back(static_cast<int>(arcs.size()));
    arcs.push_back({v, cap, origin, true});
    head[static_cast<std::size_t>(v)].push_back(static_cast<int>(arcs.size()));
    arcs.push_back({u, cap, origin, false});
  }

  bool build_levels(int s, int t) {
    level.assign(head.size(), -1);
    level[static_cast<std::size_t>(s)] = 0;
    std::deque<int> queue{s};
    while (!queue.empty()) {
      const int at = queue.front();
      queue.pop_front();
      for (int a : head[static_cast<std::size_t>(at)]) {
        const Arc& arc = arcs[static_cast<std::size_t>(a)];
        if (arc.cap <= kFlowEps) continue;
        if (level[static_cast<std::size_t>(arc.to)] != -1) continue;
        level[static_cast<std::size_t>(arc.to)] =
            level[static_cast<std::size_t>(at)] + 1;
        queue.push_back(arc.to);
      }
    }
    return level[static_cast<std::size_t>(t)] != -1;
  }

  double push(int at, int t, double limit) {
    if (at == t) return limit;
    double pushed = 0.0;
    auto& cursor = iter[static_cast<std::size_t>(at)];
    for (; cursor < head[static_cast<std::size_t>(at)].size(); ++cursor) {
      const int a = head[static_cast<std::size_t>(at)][cursor];
      Arc& arc = arcs[static_cast<std::size_t>(a)];
      if (arc.cap <= kFlowEps) continue;
      if (level[static_cast<std::size_t>(arc.to)] !=
          level[static_cast<std::size_t>(at)] + 1) {
        continue;
      }
      const double got = push(arc.to, t, std::min(limit - pushed, arc.cap));
      if (got > 0.0) {
        arc.cap -= got;
        arcs[static_cast<std::size_t>(a ^ 1)].cap += got;
        pushed += got;
        if (pushed >= limit - kFlowEps) return pushed;
      }
    }
    return pushed;
  }

  double run(int s, int t) {
    double total = 0.0;
    while (build_levels(s, t)) {
      iter.assign(head.size(), 0);
      const double inf = std::numeric_limits<double>::infinity();
      double pushed = push(s, t, inf);
      while (pushed > kFlowEps) {
        total += pushed;
        pushed = push(s, t, inf);
      }
    }
    return total;
  }

  std::vector<std::vector<int>> head;
  std::vector<Arc> arcs;
  std::vector<int> level;
  std::vector<std::size_t> iter;
};

/// Runs Dinic over the network assembled by `add_edges(net, arc_of_edge)`
/// and extracts the net per-edge flow.
template <class AddEdges>
MaxflowResult run_max_flow(const Graph& g, NodeId source, NodeId sink,
                           bool endpoints_ok, const AddEdges& add_edges) {
  g.check_node(source);
  g.check_node(sink);
  MaxflowResult result;
  result.edge_flow.assign(g.num_edges(), 0.0);
  if (source == sink) return result;
  if (!endpoints_ok) return result;

  Dinic net(static_cast<int>(g.num_nodes()));
  std::vector<std::pair<int, double>> arc_of_edge(
      g.num_edges(), {-1, 0.0});  // (first arc index, initial cap)
  add_edges(net, arc_of_edge);

  result.value = net.run(source, sink);

  // Net per-edge flow: with both arcs starting at cap0 and acting as each
  // other's residual, a net flow f in the u->v direction leaves residuals
  // cap0 - f (forward) and cap0 + f (backward), so f = (backward - forward)/2.
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto [first_arc, cap0] = arc_of_edge[e];
    if (first_arc < 0) continue;
    const double forward = net.arcs[static_cast<std::size_t>(first_arc)].cap;
    const double backward =
        net.arcs[static_cast<std::size_t>(first_arc + 1)].cap;
    result.edge_flow[e] = (backward - forward) / 2.0;
    if (std::abs(result.edge_flow[e]) > cap0 + 1e-6) {
      throw std::logic_error("max_flow: net edge flow exceeds capacity");
    }
  }
  return result;
}

}  // namespace

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink) {
  return max_flow(view, source, sink, view.edge_capacities());
}

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity) {
  const Graph& g = view.graph();
  // Validate before the bitset lookups: an out-of-range id must throw, not
  // index node_in_view_ out of bounds.
  g.check_node(source);
  g.check_node(sink);
  const bool endpoints_ok =
      view.node_in_view(source) && view.node_in_view(sink);
  return run_max_flow(
      g, source, sink, endpoints_ok,
      [&](Dinic& net, std::vector<std::pair<int, double>>& arc_of_edge) {
        for (std::size_t e = 0; e < g.num_edges(); ++e) {
          const auto id = static_cast<EdgeId>(e);
          if (!view.edge_in_view(id)) continue;
          const double cap = edge_capacity[e];
          if (cap <= kFlowEps) continue;
          const auto [eu, ev] = g.edge_endpoints(id);
          arc_of_edge[e] = {static_cast<int>(net.arcs.size()), cap};
          net.add_undirected(eu, ev, cap, id);
        }
      });
}

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity,
                       const std::vector<char>& node_ok) {
  const Graph& g = view.graph();
  g.check_node(source);
  g.check_node(sink);
  const bool endpoints_ok =
      view.node_in_view(source) && view.node_in_view(sink) &&
      node_ok[static_cast<std::size_t>(source)] &&
      node_ok[static_cast<std::size_t>(sink)];
  return run_max_flow(
      g, source, sink, endpoints_ok,
      [&](Dinic& net, std::vector<std::pair<int, double>>& arc_of_edge) {
        for (std::size_t e = 0; e < g.num_edges(); ++e) {
          const auto id = static_cast<EdgeId>(e);
          if (!view.edge_in_view(id)) continue;
          const auto [eu, ev] = g.edge_endpoints(id);
          if (!node_ok[static_cast<std::size_t>(eu)] ||
              !node_ok[static_cast<std::size_t>(ev)]) {
            continue;
          }
          const double cap = edge_capacity[e];
          if (cap <= kFlowEps) continue;
          arc_of_edge[e] = {static_cast<int>(net.arcs.size()), cap};
          net.add_undirected(eu, ev, cap, id);
        }
      });
}

std::vector<std::pair<Path, double>> decompose_flow(
    const Graph& g, NodeId source, NodeId sink,
    const std::vector<double>& edge_flow) {
  std::vector<double> residual = edge_flow;
  std::vector<std::pair<Path, double>> out;

  // Flow on edge e leaves `from` iff sign matches orientation.
  auto outgoing = [&](EdgeId e, NodeId from) -> double {
    const auto [eu, ev] = g.edge_endpoints(e);
    if (eu == from) return residual[static_cast<std::size_t>(e)];
    return -residual[static_cast<std::size_t>(e)];
  };

  auto subtract = [&](const std::vector<EdgeId>& edges, NodeId from,
                      double amount) {
    NodeId walk = from;
    for (EdgeId e : edges) {
      const auto [eu, ev] = g.edge_endpoints(e);
      residual[static_cast<std::size_t>(e)] +=
          eu == walk ? -amount : amount;
      walk = g.other_endpoint(e, walk);
    }
  };

  auto bottleneck_of = [&](const std::vector<EdgeId>& edges,
                           NodeId from) -> double {
    double b = std::numeric_limits<double>::infinity();
    NodeId walk = from;
    for (EdgeId e : edges) {
      b = std::min(b, std::abs(outgoing(e, walk)));
      walk = g.other_endpoint(e, walk);
    }
    return b;
  };

  // Each pass either extracts an s-t path or cancels a cycle, and both zero
  // out at least one edge's flow, so 2|E|+1 passes always suffice.  The walk
  // follows positive outgoing flow; revisiting a node exposes a cycle (which
  // carries no s-t value and is cancelled); with conserved flow a walk that
  // never closes a cycle must end at the sink.
  const std::size_t max_passes = 2 * g.num_edges() + 2;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::vector<EdgeId> walk_edges;
    std::vector<int> seen_at(g.num_nodes(), -1);
    seen_at[static_cast<std::size_t>(source)] = 0;
    NodeId at = source;
    bool cancelled_cycle = false;
    while (at != sink) {
      EdgeId chosen = kInvalidEdge;
      for (EdgeId e : g.incident_edges(at)) {
        if (outgoing(e, at) > kFlowEps) {
          chosen = e;
          break;
        }
      }
      if (chosen == kInvalidEdge) break;  // dead end (only at source, or noise)
      const NodeId next = g.other_endpoint(chosen, at);
      const int prior = seen_at[static_cast<std::size_t>(next)];
      if (prior != -1) {
        std::vector<EdgeId> cycle(walk_edges.begin() + prior,
                                  walk_edges.end());
        cycle.push_back(chosen);
        subtract(cycle, next, bottleneck_of(cycle, next));
        cancelled_cycle = true;
        break;
      }
      walk_edges.push_back(chosen);
      at = next;
      seen_at[static_cast<std::size_t>(at)] =
          static_cast<int>(walk_edges.size());
    }
    if (cancelled_cycle) continue;
    if (at != sink || walk_edges.empty()) break;
    const double amount = bottleneck_of(walk_edges, source);
    subtract(walk_edges, source, amount);
    Path path;
    path.start = source;
    path.edges = std::move(walk_edges);
    out.emplace_back(std::move(path), amount);
  }
  return out;
}

}  // namespace netrec::graph
