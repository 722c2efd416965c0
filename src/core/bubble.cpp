#include "core/bubble.hpp"

namespace netrec::core {

namespace {
/// Residual at or below which an edge is drained (ISP's tolerance).
constexpr double kDrained = 1e-9;

std::size_t idx(graph::NodeId v) { return static_cast<std::size_t>(v); }
}  // namespace

bool find_bubble(const graph::GraphView& working, const RepairState& state,
                 const std::vector<double>& residual,
                 const std::vector<char>& endpoint, graph::NodeId s,
                 graph::NodeId t, bool check_boundary, BubbleWorkspace& ws) {
  std::vector<char>& in = ws.in_bubble_;
  std::vector<graph::NodeId>& members = ws.members_;
  for (graph::NodeId v : members) in[idx(v)] = 0;
  members.clear();
  if (!state.node_ok(s) || !state.node_ok(t)) return false;

  const graph::Graph& g = working.graph();
  const auto wall = [&](graph::NodeId v) {
    return endpoint[idx(v)] && v != s && v != t;
  };
  in[idx(s)] = 1;
  members.push_back(s);
  bool reached_t = false;
  for (std::size_t head = 0; head < members.size(); ++head) {
    const graph::NodeId at = members[head];
    if (at == t) continue;  // t is absorbed, never expanded
    if (check_boundary && at != s) {
      // Early leak exit: walls and unrepaired broken nodes never join S.
      for (graph::EdgeId e : g.incident_edges(at)) {
        const graph::NodeId to = g.other_endpoint(e, at);
        if (wall(to) || !state.node_ok(to)) return false;
      }
    }
    const graph::ArcId end = working.arcs_end(at);
    for (graph::ArcId a = working.arcs_begin(at); a < end; ++a) {
      if (residual[static_cast<std::size_t>(working.arc_edge(a))] <=
          kDrained) {
        continue;
      }
      const graph::NodeId to = working.arc_target(a);
      if (in[idx(to)] || wall(to)) continue;
      in[idx(to)] = 1;
      members.push_back(to);
      if (to == t) reached_t = true;
    }
  }
  if (!reached_t) return false;

  if (check_boundary) {
    for (graph::NodeId v : members) {
      if (v == s || v == t) continue;
      for (graph::EdgeId e : g.incident_edges(v)) {
        if (!in[idx(g.other_endpoint(e, v))]) return false;
      }
    }
  }
  return true;
}

}  // namespace netrec::core
