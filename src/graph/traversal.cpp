#include "graph/traversal.hpp"

#include <algorithm>
#include <deque>

namespace netrec::graph {

std::vector<int> bfs_hops(const GraphView& view, NodeId source) {
  view.graph().check_node(source);
  std::vector<int> dist(view.num_nodes(), -1);
  dist[static_cast<std::size_t>(source)] = 0;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId at = queue.front();
    queue.pop_front();
    const int next_dist = dist[static_cast<std::size_t>(at)] + 1;
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const NodeId next = view.arc_target(a);
      if (dist[static_cast<std::size_t>(next)] != -1) continue;
      dist[static_cast<std::size_t>(next)] = next_dist;
      queue.push_back(next);
    }
  }
  return dist;
}

bool reachable(const GraphView& view, NodeId source, NodeId target) {
  if (source == target) return true;
  const auto dist = bfs_hops(view, source);
  return dist[static_cast<std::size_t>(target)] != -1;
}

bool reachable(const GraphView& view, NodeId source, NodeId target,
               const std::vector<double>& edge_residual) {
  constexpr double kResidualEps = 1e-9;
  view.graph().check_node(source);
  view.graph().check_node(target);
  if (source == target) return true;
  std::vector<char> seen(view.num_nodes(), 0);
  seen[static_cast<std::size_t>(source)] = 1;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId at = queue.front();
    queue.pop_front();
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const auto e = static_cast<std::size_t>(view.arc_edge(a));
      if (edge_residual[e] <= kResidualEps) continue;
      const NodeId next = view.arc_target(a);
      if (seen[static_cast<std::size_t>(next)]) continue;
      if (next == target) return true;
      seen[static_cast<std::size_t>(next)] = 1;
      queue.push_back(next);
    }
  }
  return false;
}

std::vector<int> connected_components(const GraphView& view) {
  std::vector<int> label(view.num_nodes(), -1);
  int next_label = 0;
  for (std::size_t start = 0; start < view.num_nodes(); ++start) {
    if (label[start] != -1) continue;
    if (!view.node_in_view(static_cast<NodeId>(start))) continue;
    label[start] = next_label;
    std::deque<NodeId> queue{static_cast<NodeId>(start)};
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      const ArcId end = view.arcs_end(at);
      for (ArcId a = view.arcs_begin(at); a < end; ++a) {
        const NodeId to = view.arc_target(a);
        if (label[static_cast<std::size_t>(to)] != -1) continue;
        label[static_cast<std::size_t>(to)] = next_label;
        queue.push_back(to);
      }
    }
    ++next_label;
  }
  return label;
}

std::vector<NodeId> giant_component(const GraphView& view) {
  const auto label = connected_components(view);
  int max_label = -1;
  for (int l : label) max_label = std::max(max_label, l);
  if (max_label < 0) return {};
  std::vector<std::size_t> size(static_cast<std::size_t>(max_label) + 1, 0);
  for (int l : label) {
    if (l >= 0) ++size[static_cast<std::size_t>(l)];
  }
  const auto best = static_cast<int>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if (label[i] == best) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

int hop_diameter(const GraphView& view) {
  int diameter = 0;
  for (std::size_t s = 0; s < view.num_nodes(); ++s) {
    const auto dist = bfs_hops(view, static_cast<NodeId>(s));
    for (int d : dist) {
      if (d == -1) return -1;
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

std::vector<std::vector<int>> all_pairs_hops(const GraphView& view) {
  std::vector<std::vector<int>> out;
  out.reserve(view.num_nodes());
  for (std::size_t s = 0; s < view.num_nodes(); ++s) {
    out.push_back(bfs_hops(view, static_cast<NodeId>(s)));
  }
  return out;
}

}  // namespace netrec::graph
