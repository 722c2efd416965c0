#include "graph/maxflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace netrec::graph {

namespace {

constexpr double kFlowEps = 1e-9;

/// Dinic's per-call arrays, kept per thread and reused across calls (like
/// heap_storage() in dijkstra.cpp): once they have grown to a graph's size,
/// a flow allocates nothing but its result.
struct DinicWorkspace {
  std::vector<double> residual;  ///< per view arc; 0 outside the network
  std::vector<ArcId> twin;       ///< reverse arc of the same edge
  std::vector<int> level;        ///< per node; -1 when unlabelled
  std::vector<ArcId> cursor;     ///< per node: next arc to try this phase
  std::vector<NodeId> queue;     ///< BFS queue
};

DinicWorkspace& workspace() {
  thread_local DinicWorkspace storage;
  return storage;
}

/// Dinic directly on the view's CSR arcs.  An undirected edge is its two
/// arcs, each starting at the full capacity and acting as the other's
/// residual.  Arcs outside the network (edges `member` rejects,
/// capacities <= 1e-9) start at residual 0 and are never raised, so they
/// are skipped exactly as if absent.  A node's arcs come in increasing edge
/// id, which fixes the order of every floating-point flow update.
class Dinic {
 public:
  Dinic(const GraphView& view, DinicWorkspace& ws) : view_(view), ws_(ws) {}

  /// Loads the network: arc u->v of edge e carries capacity[e] iff
  /// capacity[e] > 1e-9 and `member(u, v)`.
  template <class Member>
  void load(const std::vector<double>& capacity, const Member& member) {
    const std::size_t n = view_.num_nodes();
    ws_.residual.resize(view_.num_arcs());
    ws_.twin.resize(view_.num_arcs());
    ws_.level.resize(n);
    ws_.cursor.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<NodeId>(i);
      const ArcId end = view_.arcs_end(u);
      for (ArcId a = view_.arcs_begin(u); a < end; ++a) {
        const EdgeId e = view_.arc_edge(a);
        const double cap = capacity[static_cast<std::size_t>(e)];
        const bool in_network =
            cap > kFlowEps && member(u, view_.arc_target(a));
        ws_.residual[a] = in_network ? cap : 0.0;
        ws_.twin[a] = view_.arc_twin(a);
      }
    }
  }

  double run(NodeId s, NodeId t) {
    double total = 0.0;
    while (build_levels(s, t)) {
      for (std::size_t i = 0; i < ws_.cursor.size(); ++i) {
        ws_.cursor[i] = view_.arcs_begin(static_cast<NodeId>(i));
      }
      const double inf = std::numeric_limits<double>::infinity();
      double pushed = push(s, t, inf);
      while (pushed > kFlowEps) {
        total += pushed;
        pushed = push(s, t, inf);
      }
    }
    return total;
  }

  /// Net per-edge flow into `edge_flow`: with both arcs starting at cap0, a
  /// net flow f in the u->v direction leaves residuals cap0 - f (forward)
  /// and cap0 + f (backward), so f = (backward - forward) / 2.
  void extract(const std::vector<double>& capacity,
               std::vector<double>& edge_flow) const {
    const Graph& g = view_.graph();
    for (std::size_t i = 0; i < view_.num_nodes(); ++i) {
      const auto u = static_cast<NodeId>(i);
      const ArcId end = view_.arcs_end(u);
      for (ArcId a = view_.arcs_begin(u); a < end; ++a) {
        const EdgeId e = view_.arc_edge(a);
        if (g.edge_endpoints(e).first != u) continue;  // backward arc
        const ArcId back = ws_.twin[a];
        // Edges outside the network keep zero flow; a network edge's
        // residuals sum to twice its capacity, never 0.
        if (ws_.residual[a] == 0.0 && ws_.residual[back] == 0.0) continue;
        const double flow = (ws_.residual[back] - ws_.residual[a]) / 2.0;
        if (std::abs(flow) > capacity[static_cast<std::size_t>(e)] + 1e-6) {
          throw std::logic_error("max_flow: net edge flow exceeds capacity");
        }
        edge_flow[static_cast<std::size_t>(e)] = flow;
      }
    }
  }

 private:
  /// BFS levels over positive-residual arcs.  Returns as soon as the sink
  /// is labelled: every arc out of a node at or past the sink's level leads
  /// away from the sink, so the labels it would still add move no flow.
  bool build_levels(NodeId s, NodeId t) {
    std::fill(ws_.level.begin(), ws_.level.end(), -1);
    ws_.level[static_cast<std::size_t>(s)] = 0;
    ws_.queue.clear();
    ws_.queue.push_back(s);
    for (std::size_t head = 0; head < ws_.queue.size(); ++head) {
      const NodeId at = ws_.queue[head];
      const int next_level = ws_.level[static_cast<std::size_t>(at)] + 1;
      const ArcId end = view_.arcs_end(at);
      for (ArcId a = view_.arcs_begin(at); a < end; ++a) {
        if (ws_.residual[a] <= kFlowEps) continue;
        const NodeId to = view_.arc_target(a);
        if (ws_.level[static_cast<std::size_t>(to)] != -1) continue;
        ws_.level[static_cast<std::size_t>(to)] = next_level;
        if (to == t) return true;
        ws_.queue.push_back(to);
      }
    }
    return false;
  }

  double push(NodeId at, NodeId t, double limit) {
    if (at == t) return limit;
    double pushed = 0.0;
    const int next_level = ws_.level[static_cast<std::size_t>(at)] + 1;
    ArcId& cursor = ws_.cursor[static_cast<std::size_t>(at)];
    const ArcId end = view_.arcs_end(at);
    for (; cursor < end; ++cursor) {
      const ArcId a = cursor;
      const double cap = ws_.residual[a];
      if (cap <= kFlowEps) continue;
      const NodeId to = view_.arc_target(a);
      if (ws_.level[static_cast<std::size_t>(to)] != next_level) continue;
      const double got = push(to, t, std::min(limit - pushed, cap));
      if (got > 0.0) {
        ws_.residual[a] -= got;
        ws_.residual[ws_.twin[a]] += got;
        pushed += got;
        if (pushed >= limit - kFlowEps) return pushed;
      }
    }
    return pushed;
  }

  const GraphView& view_;
  DinicWorkspace& ws_;
};

/// Validates the endpoints, runs Dinic on the network `member` selects and
/// extracts the net per-edge flow.
template <class Member>
MaxflowResult run_max_flow(const GraphView& view, NodeId source, NodeId sink,
                           const std::vector<double>& edge_capacity,
                           const Member& member) {
  const Graph& g = view.graph();
  // Validate first: `member` and Dinic index per-node arrays by these ids.
  g.check_node(source);
  g.check_node(sink);
  MaxflowResult result;
  result.edge_flow.assign(g.num_edges(), 0.0);
  if (source == sink) return result;
  if (!member(source, sink)) return result;
  Dinic net(view, workspace());
  net.load(edge_capacity, member);
  result.value = net.run(source, sink);
  net.extract(edge_capacity, result.edge_flow);
  return result;
}

}  // namespace

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink) {
  return max_flow(view, source, sink, view.edge_capacities());
}

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity) {
  return run_max_flow(view, source, sink, edge_capacity,
                      [](NodeId, NodeId) { return true; });
}

MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity,
                       const std::vector<char>& node_ok) {
  return run_max_flow(view, source, sink, edge_capacity,
                      [&node_ok](NodeId u, NodeId v) {
                        return node_ok[static_cast<std::size_t>(u)] &&
                               node_ok[static_cast<std::size_t>(v)];
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
