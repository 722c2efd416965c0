#include "graph/dijkstra.hpp"

#include <limits>
#include <stdexcept>

#include "graph/heap.hpp"

namespace netrec::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kResidualEps = 1e-9;

using HeapItem = std::pair<double, NodeId>;

/// Reusable heap storage: the allocation survives across the many Dijkstra
/// calls of a betweenness pass or a pricing round.  Pop order is the same
/// as std::priority_queue's — (distance, node) is a total order, so any
/// correct min-priority-queue settles nodes in the identical sequence.
QuadHeap<HeapItem>& heap_storage() {
  thread_local QuadHeap<HeapItem> storage;
  storage.clear();
  return storage;
}

/// Shared CSR Dijkstra core.  `weight_of(ArcId, EdgeId)`, `arc_ok(EdgeId)`
/// and `stop_after(NodeId)` are inlined functors, so the instantiations
/// below compile to tight loops over flat arrays.  `stop_after` sees each
/// node as it settles and ends the run when it returns true: that node's
/// distance and parent chain — and those of every node settled before it —
/// are final, since the rest of the settle order only grows labels.  The
/// `!(w >= 0.0)` guard rejects negative *and* NaN lengths.
template <class WeightOf, class ArcOk, class StopAfter>
ShortestPathTree run_dijkstra(const GraphView& view, NodeId source,
                              const WeightOf& weight_of, const ArcOk& arc_ok,
                              StopAfter stop_after) {
  view.graph().check_node(source);
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(view.num_nodes(), kInf);
  tree.parent_edge.assign(view.num_nodes(), kInvalidEdge);
  tree.distance[static_cast<std::size_t>(source)] = 0.0;

  QuadHeap<HeapItem>& heap = heap_storage();
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [dist, at] = heap.pop();
    if (dist > tree.distance[static_cast<std::size_t>(at)]) continue;
    if (stop_after(at)) break;
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const EdgeId e = view.arc_edge(a);
      if (!arc_ok(e)) continue;
      const double w = weight_of(a, e);
      if (!(w >= 0.0)) {
        throw std::invalid_argument("dijkstra: negative or NaN edge length");
      }
      const double candidate = dist + w;
      const NodeId to = view.arc_target(a);
      if (candidate < tree.distance[static_cast<std::size_t>(to)]) {
        tree.distance[static_cast<std::size_t>(to)] = candidate;
        tree.parent_edge[static_cast<std::size_t>(to)] = e;
        heap.push({candidate, to});
      }
    }
  }
  return tree;
}

struct NeverStop {
  bool operator()(NodeId) const { return false; }
};

struct StopAt {
  NodeId target;
  bool operator()(NodeId at) const { return at == target; }
};

/// Stops once every node of a target set has settled.
class StopAtAll {
 public:
  StopAtAll(std::size_t num_nodes, const std::vector<NodeId>& targets)
      : pending_(num_nodes, 0) {
    for (NodeId t : targets) {
      char& mark = pending_[static_cast<std::size_t>(t)];
      if (!mark) ++remaining_;
      mark = 1;
    }
  }

  bool operator()(NodeId at) {
    char& mark = pending_[static_cast<std::size_t>(at)];
    if (!mark) return false;
    mark = 0;
    return --remaining_ == 0;
  }

 private:
  std::vector<char> pending_;
  std::size_t remaining_ = 0;
};

struct AllArcsOk {
  bool operator()(EdgeId) const { return true; }
};

}  // namespace

bool ShortestPathTree::reached(NodeId node) const {
  return distance[static_cast<std::size_t>(node)] < kInf;
}

std::optional<Path> ShortestPathTree::path_to(const Graph& g,
                                              NodeId target) const {
  if (!reached(target)) return std::nullopt;
  Path path;
  path.start = source;
  std::vector<EdgeId> reversed;
  NodeId at = target;
  while (at != source) {
    const EdgeId e = parent_edge[static_cast<std::size_t>(at)];
    reversed.push_back(e);
    at = g.other_endpoint(e, at);
  }
  path.edges.assign(reversed.rbegin(), reversed.rend());
  return path;
}

ShortestPathTree dijkstra(const GraphView& view, NodeId source) {
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); }, AllArcsOk{},
      NeverStop{});
}

ShortestPathTree dijkstra_to(const GraphView& view, NodeId source,
                             NodeId target,
                             const std::vector<double>& edge_length,
                             const std::vector<double>& edge_residual) {
  view.graph().check_node(target);
  return run_dijkstra(
      view, source,
      [&edge_length](ArcId, EdgeId e) {
        return edge_length[static_cast<std::size_t>(e)];
      },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      },
      StopAt{target});
}

ShortestPathTree dijkstra_residual_to(
    const GraphView& view, NodeId source, NodeId target,
    const std::vector<double>& edge_residual) {
  view.graph().check_node(target);
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      },
      StopAt{target});
}

ShortestPathTree dijkstra_residual_to(
    const GraphView& view, NodeId source, const std::vector<NodeId>& targets,
    const std::vector<double>& edge_residual) {
  for (NodeId t : targets) view.graph().check_node(t);
  return run_dijkstra(
      view, source,
      [&view](ArcId a, EdgeId) { return view.arc_length(a); },
      [&edge_residual](EdgeId e) {
        return edge_residual[static_cast<std::size_t>(e)] > kResidualEps;
      },
      StopAtAll(view.num_nodes(), targets));
}

std::optional<Path> shortest_path(const GraphView& view, NodeId source,
                                  NodeId target) {
  view.graph().check_node(target);
  return run_dijkstra(
             view, source,
             [&view](ArcId a, EdgeId) { return view.arc_length(a); },
             AllArcsOk{}, StopAt{target})
      .path_to(view.graph(), target);
}

}  // namespace netrec::graph
