#include "graph/view.hpp"

namespace netrec::graph {

GraphView GraphView::build(const Graph& g, const ViewConfig& config) {
  GraphView view;
  view.g_ = &g;
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();

  // Edge verdicts and weights, one callback evaluation per edge.  Weights
  // are consulted for in-view edges only; the others keep 0.
  view.edge_in_view_.assign(m, 1);
  view.edge_lengths_.assign(m, 0.0);
  view.edge_capacities_.assign(m, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    const auto id = static_cast<EdgeId>(e);
    if (config.edge_ok && !config.edge_ok(id)) {
      view.edge_in_view_[e] = 0;
      continue;
    }
    view.edge_lengths_[e] = config.length ? config.length(id) : 1.0;
    view.edge_capacities_[e] =
        config.capacity ? config.capacity(id) : g.edge_capacity(id);
  }

  // CSR over directed arcs: an in-view edge u-v gives u -> v and v -> u.
  view.offsets_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    if (!view.edge_in_view_[e]) continue;
    const auto [eu, ev] = g.edge_endpoints(static_cast<EdgeId>(e));
    ++view.offsets_[static_cast<std::size_t>(eu) + 1];
    ++view.offsets_[static_cast<std::size_t>(ev) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) view.offsets_[i + 1] += view.offsets_[i];

  const std::size_t arcs = view.offsets_[n];
  view.arcs_.resize(arcs);
  view.arc_capacities_.resize(arcs);
  view.edge_arcs_.assign(m, {kInvalidArc, kInvalidArc});
  // Fill per node in incidence order (increasing edge id): arc order fixes
  // every floating-point tie-break downstream.
  std::vector<ArcId> cursor(view.offsets_.begin(), view.offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<NodeId>(i);
    for (EdgeId e : g.incident_edges(u)) {
      if (!view.edge_in_view_[static_cast<std::size_t>(e)]) continue;
      const ArcId a = cursor[i]++;
      view.arcs_[a] = {g.other_endpoint(e, u), e,
                       view.edge_lengths_[static_cast<std::size_t>(e)]};
      view.arc_capacities_[a] =
          view.edge_capacities_[static_cast<std::size_t>(e)];
      auto& slots = view.edge_arcs_[static_cast<std::size_t>(e)];
      slots[slots[0] == kInvalidArc ? 0 : 1] = a;
    }
  }
  return view;
}

void GraphView::refresh_edge_metrics(EdgeId e, double length,
                                     double capacity) {
  edge_lengths_[static_cast<std::size_t>(e)] = length;
  edge_capacities_[static_cast<std::size_t>(e)] = capacity;
  for (ArcId a : edge_arcs_[static_cast<std::size_t>(e)]) {
    arcs_[a].length = length;
    arc_capacities_[a] = capacity;
  }
}

GraphView GraphView::working(const Graph& g) {
  ViewConfig config;
  config.edge_ok = working_edge_filter(g);
  return build(g, config);
}

}  // namespace netrec::graph
