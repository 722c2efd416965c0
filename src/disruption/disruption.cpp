#include "disruption/disruption.hpp"

#include <algorithm>
#include <cmath>

#include "graph/dijkstra.hpp"
#include "graph/view.hpp"

namespace netrec::disruption {

namespace {

/// Variance at which the Gaussian's failure-probability peak is 1.
constexpr double kReferenceVariance = 50.0;
/// Normalised distance of the farthest node from the barycentre.
constexpr double kSceneRadius = 15.0;
/// Re-route/break rounds per cascade advance(); the cascade usually
/// settles far earlier.
constexpr std::size_t kCascadeMaxRounds = 8;
/// Load above overload_factor * capacity by more than this breaks an edge.
constexpr double kCascadeTolerance = 1e-9;

/// Barycentre of the node coordinates (the paper's default epicentre).
std::pair<double, double> barycenter(const graph::Graph& g) {
  double sx = 0.0;
  double sy = 0.0;
  if (g.num_nodes() == 0) return {0.0, 0.0};
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    sx += g.node_x(static_cast<graph::NodeId>(i));
    sy += g.node_y(static_cast<graph::NodeId>(i));
  }
  const double inv = 1.0 / static_cast<double>(g.num_nodes());
  return {sx * inv, sy * inv};
}

}  // namespace

void complete_destruction(graph::Graph& g) { g.break_everything(); }

DisruptionReport gaussian_disaster(graph::Graph& g,
                                   const GaussianDisasterOptions& options,
                                   util::Rng& rng) {
  DisruptionReport report;
  if (g.num_nodes() == 0) return report;
  const auto [ex, ey] = options.epicenter.value_or(barycenter(g));

  // Scene normalisation: farthest node -> distance kSceneRadius.
  double max_dist = 0.0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    max_dist =
        std::max(max_dist, std::hypot(g.node_x(id) - ex, g.node_y(id) - ey));
  }
  const double scale = max_dist > 0.0 ? kSceneRadius / max_dist : 0.0;

  // "Scaled the probability accordingly": the Gaussian's peak grows linearly
  // with the variance, so wider disasters are also more intense.
  const double peak = options.variance / kReferenceVariance;
  auto failure_probability = [&](double x, double y) {
    const double d = std::hypot(x - ex, y - ey) * scale;
    return std::min(1.0, peak * std::exp(-d * d / (2.0 * options.variance)));
  };

  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    if (!g.node_broken(id) &&
        rng.chance(failure_probability(g.node_x(id), g.node_y(id)))) {
      g.set_node_broken(id, true);
      ++report.broken_nodes;
    }
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    const auto [eu, ev] = g.edge_endpoints(id);
    const double mx = (g.node_x(eu) + g.node_x(ev)) / 2.0;
    const double my = (g.node_y(eu) + g.node_y(ev)) / 2.0;
    if (!g.edge_broken(id) && rng.chance(failure_probability(mx, my))) {
      g.set_edge_broken(id, true);
      ++report.broken_edges;
    }
  }
  return report;
}

DisruptionReport random_failures(graph::Graph& g, double node_probability,
                                 double edge_probability, util::Rng& rng) {
  DisruptionReport report;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    if (!g.node_broken(id) && rng.chance(node_probability)) {
      g.set_node_broken(id, true);
      ++report.broken_nodes;
    }
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    if (!g.edge_broken(id) && rng.chance(edge_probability)) {
      g.set_edge_broken(id, true);
      ++report.broken_edges;
    }
  }
  return report;
}

AftershockProcess::AftershockProcess(AftershockOptions options)
    : opt_(std::move(options)), variance_(opt_.first.variance) {}

bool AftershockProcess::exhausted() const {
  return fired_ >= opt_.max_shocks || variance_ < opt_.min_variance;
}

DisruptionReport AftershockProcess::next(graph::Graph& g, util::Rng& rng) {
  if (exhausted()) return {};
  GaussianDisasterOptions shock = opt_.first;
  shock.variance = variance_;
  const DisruptionReport report = gaussian_disaster(g, shock, rng);
  variance_ *= opt_.decay;
  ++fired_;
  return report;
}

CascadeModel::CascadeModel(CascadeOptions options) : opt_(options) {}

DisruptionReport CascadeModel::advance(
    graph::Graph& g, const std::vector<mcf::Demand>& demands) {
  DisruptionReport report;
  if (demands.empty()) return report;
  std::vector<double> load(g.num_edges(), 0.0);
  for (std::size_t round = 0; round < kCascadeMaxRounds; ++round) {
    // Working subgraph, unit hop lengths: the re-routing model, not the
    // capacity-feasible referee.
    const graph::GraphView view = graph::GraphView::working(g);
    std::fill(load.begin(), load.end(), 0.0);
    for (const mcf::Demand& d : demands) {
      if (d.amount <= 0.0 || d.source == d.target) continue;
      const auto path = graph::shortest_path(view, d.source, d.target);
      if (!path) continue;  // demand cut off: no load contributed
      for (graph::EdgeId e : path->edges) {
        load[static_cast<std::size_t>(e)] += d.amount;
      }
    }
    std::size_t broke = 0;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if (g.edge_broken(id)) continue;
      if (load[e] >
          opt_.overload_factor * g.edge_capacity(id) + kCascadeTolerance) {
        g.set_edge_broken(id, true);
        ++broke;
      }
    }
    if (broke == 0) break;
    report.broken_edges += broke;
  }
  return report;
}

}  // namespace netrec::disruption
