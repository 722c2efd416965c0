// Demand-based centrality (paper Section IV-B, eq. 3).
//
// The runtime estimate ĉd(v): for each demand (i,j) collect successive
// shortest paths (under the dynamic length metric) on the full supply graph
// with residual capacities until their combined capacity covers d_ij (at
// most 64 paths per demand, a constant of centrality.cpp); each
// selected path p contributes  c(p)/sum_q c(q) * d_ij  to every node it
// touches.  The result also exposes the per-demand path sets P̂*(i,j), which
// ISP's split decisions 1 and 2 reuse (C(v_BC) membership and the capacity
// routable through v_BC).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"
#include "mcf/types.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::core {

struct DemandPathSet {
  std::vector<graph::Path> paths;
  std::vector<double> capacities;  ///< residual c(p) when selected
  double total_capacity = 0.0;
};

class CentralityResult {
 public:
  CentralityResult(std::size_t num_nodes, std::size_t num_demands);

  const std::vector<double>& scores() const { return score_; }
  double score(graph::NodeId v) const {
    return score_[static_cast<std::size_t>(v)];
  }

  /// Demand indices whose P̂* passes through v — the paper's C(n)(v).
  const std::vector<int>& contributors(graph::NodeId v) const {
    return contributors_[static_cast<std::size_t>(v)];
  }

  const DemandPathSet& demand_paths(int demand) const {
    return demand_paths_[static_cast<std::size_t>(demand)];
  }

  /// sum of c(p) over P̂*(demand)|v — capacity routable through v.
  double capacity_through(int demand, graph::NodeId v,
                          const graph::Graph& g) const;

  /// Nodes ordered by decreasing score (ties: smaller id first).
  std::vector<graph::NodeId> ranking() const;

  // Builder access (used by demand_based_centrality).
  std::vector<double>& mutable_scores() { return score_; }
  std::vector<std::vector<int>>& mutable_contributors() {
    return contributors_;
  }
  std::vector<DemandPathSet>& mutable_demand_paths() { return demand_paths_; }

 private:
  std::vector<double> score_;
  std::vector<std::vector<int>> contributors_;
  std::vector<DemandPathSet> demand_paths_;
};

/// Computes ĉd on a borrowed (typically ViewCache-owned) snapshot of the
/// *full* graph (broken elements included — centrality ranks repair
/// candidates) whose lengths are the dynamic metric and capacities the
/// residuals.
///
/// Demands sharing a source reuse one shortest-path tree for their first
/// selected path — the tree is a pure function of (view, source), since
/// every enumeration starts from the same untouched residuals — and that
/// tree stops once all of the source's targets have settled.  Every later
/// single-pair lookup stops at its target instead of settling the whole
/// graph.  These shortcuts select exactly the paths a full Dijkstra per
/// round would (tests/golden/isp_corpus.txt was recorded while the two
/// computations agreed).
///
/// The shared first-path trees and the per-demand successive-shortest-path
/// enumerations are pure functions of (view, demand), so they fan out on
/// `pool` into per-demand slots; the eq.-(3) score accumulation then runs
/// serially in demand order.  Fixed merge order means the result is
/// bit-identical to the serial evaluation at any thread count.  A null pool,
/// or one of a single worker, keeps the whole evaluation on the calling
/// thread.
CentralityResult demand_based_centrality(
    const graph::GraphView& view, const std::vector<mcf::Demand>& demands,
    util::ThreadPool* pool = nullptr);

}  // namespace netrec::core
