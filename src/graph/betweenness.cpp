#include "graph/betweenness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/heap.hpp"

namespace netrec::graph {

namespace {

/// Per-source Brandes state, reusable across passes.  All workspaces
/// (heap included: a vector drained with std::push_heap/std::pop_heap pops
/// in the same order as std::priority_queue) persist across run() calls so
/// the |V| passes share their allocations.  Predecessor lists live in one
/// flat array aligned with the CSR arcs: node v's slots start at
/// arcs_begin(v) (a node gains at most one live predecessor per incident
/// arc), so no per-relaxation vector bookkeeping is needed.
struct BrandesPass {
  std::vector<double> dist;
  std::vector<double> sigma;  // number of shortest paths
  std::vector<double> delta;  // dependency accumulator
  std::vector<NodeId> pred_flat;
  std::vector<ArcId> pred_count;
  QuadHeap<std::pair<double, NodeId>> heap;
  std::vector<NodeId> order;  // nodes in non-decreasing distance
  std::vector<char> settled;

  void bind(const GraphView& view) {
    const std::size_t n = view.num_nodes();
    dist.resize(n);
    sigma.resize(n);
    delta.resize(n);
    pred_flat.resize(view.num_arcs());
    pred_count.resize(n);
    settled.resize(n);
  }

  /// One shortest-path DAG + dependency accumulation from `source`.  After
  /// the call, `order` lists the reached nodes and delta[w] is the final
  /// dependency of every w in `order`.
  void run(const GraphView& view, NodeId source) {
    order.clear();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto s = static_cast<std::size_t>(source);
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    std::fill(settled.begin(), settled.end(), 0);
    std::fill(pred_count.begin(), pred_count.end(), 0);
    heap.clear();

    dist[s] = 0.0;
    sigma[s] = 1.0;
    heap.push({0.0, source});

    while (!heap.empty()) {
      const auto [d, at] = heap.pop();
      if (settled[static_cast<std::size_t>(at)]) continue;
      settled[static_cast<std::size_t>(at)] = 1;
      order.push_back(at);
      // sigma[at] is final once `at` settles (no self-loops), so hoist the
      // load the optimiser cannot prove invariant across the sigma[ti]
      // stores.
      const double sigma_at = sigma[static_cast<std::size_t>(at)];
      const ArcId arc_end = view.arcs_end(at);
      for (ArcId a = view.arcs_begin(at); a < arc_end; ++a) {
        const NodeId to = view.arc_target(a);
        const double candidate = d + view.arc_length(a);
        const auto ti = static_cast<std::size_t>(to);
        if (candidate < dist[ti] - 1e-12) {
          dist[ti] = candidate;
          sigma[ti] = sigma_at;
          pred_flat[view.arcs_begin(to)] = at;
          pred_count[ti] = 1;
          heap.push({candidate, to});
        } else if (std::abs(candidate - dist[ti]) <= 1e-12) {
          sigma[ti] += sigma_at;
          pred_flat[view.arcs_begin(to) + pred_count[ti]++] = at;
        }
      }
    }

    // Dependency accumulation in reverse settle order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId w = *it;
      const auto wi = static_cast<std::size_t>(w);
      const double sigma_w = sigma[wi];
      const double coefficient = 1.0 + delta[wi];
      const ArcId begin = view.arcs_begin(w);
      const ArcId end = begin + pred_count[wi];
      for (ArcId p = begin; p < end; ++p) {
        const auto vi = static_cast<std::size_t>(pred_flat[p]);
        delta[vi] += sigma[vi] / sigma_w * coefficient;
      }
    }
  }

  /// Adds this pass's dependencies into `centrality`.
  void merge_into(NodeId source, std::vector<double>& centrality) const {
    for (const NodeId w : order) {
      if (w == source) continue;
      centrality[static_cast<std::size_t>(w)] +=
          delta[static_cast<std::size_t>(w)];
    }
  }
};

}  // namespace

std::vector<double> betweenness_centrality(const GraphView& view) {
  const std::size_t n = view.num_nodes();
  std::vector<double> centrality(n, 0.0);
  BrandesPass pass;
  pass.bind(view);
  for (std::size_t s = 0; s < n; ++s) {
    const auto source = static_cast<NodeId>(s);
    pass.run(view, source);
    pass.merge_into(source, centrality);
  }
  // Undirected graph: each pair counted from both endpoints.
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

}  // namespace netrec::graph
