// ISP split-amount LP (paper Section IV-C, decision 2).
//
// Given the current demand set and a chosen demand h / via-node v_BC,
// computes the largest dx such that replacing dx units of (s_h, t_h) with
// (s_h, v_BC) and (v_BC, t_h) keeps the whole demand routable on the given
// (typically full, residual-capacity) supply graph.
#pragma once

#include "graph/view.hpp"
#include "mcf/path_lp_session.hpp"

namespace netrec::mcf {

/// Runs the LP on a persistent kMaxSplit session: the columns of the
/// unsplit demands and of earlier (via, half) probes persist across calls,
/// and the master warm-starts from the previous probe's basis — the hottest
/// call in ISP's split phase (one probe per centrality candidate per
/// iteration).  The routable network is the view's edges with positive
/// capacity.  Returns dx in [0, demands[split_index].amount]; 0 when even
/// the unsplit demand is not routable (ISP treats that as "pick a different
/// candidate").
double max_splittable_amount(
    PathLpSession& session, const graph::GraphView& view,
    const std::vector<PathLpSession::DemandSpec>& demands, int split_index,
    graph::NodeId via);

}  // namespace netrec::mcf
