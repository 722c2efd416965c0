// Routability tests and demand routing (paper Section IV-A).
//
// Every entry point takes the network as a graph::GraphView: the routable
// network is the view's edges with capacity > 1e-9 (views cached across
// residual updates keep drained edges as arcs, and every algorithm below
// skips them), and the view's lengths must be the unit/hop metric.  A
// caller with a filter builds one view per probe, e.g.
// `GraphView::build(g, {.edge_ok = state.edge_filter()})`.
//
// `route_demands` is the workhorse: it answers "can demand graph H be routed
// over this (sub)graph with these capacities?" and, when the answer is yes,
// produces a witness routing.  A greedy successive-shortest-path pre-pass
// settles most YES instances without touching the LP; the column-generation
// LP (a one-use PathLpSession, exact) decides the rest.  `max_routed_flow`
// is the referee used to score demand loss for heuristics that cannot
// guarantee full routing (SRT, GRD-COM).
#pragma once

#include "graph/view.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/path_lp_session.hpp"
#include "mcf/types.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::mcf {

/// The paper's routability test (eq. 2) on a persistent PathLpSession
/// (kMaxRouted mode, pooled columns, warm basis).  Unlike the one-shot
/// overload there is no greedy precheck: the warm master re-solve with the
/// pricing early-stop *is* the fast path, and its verdict equals the
/// precheck pipeline's by LP exactness — which the ISP differential
/// harness pins exactly.
bool is_routable(PathLpSession& session, const graph::GraphView& view,
                 const std::vector<PathLpSession::DemandSpec>& demands);

/// Greedy sufficient check: routes demands one by one (largest first) with
/// successive shortest paths on residual capacities, starting from the
/// view's capacities.  fully_routed == true is a proof of routability;
/// false proves nothing.
///
/// With a `pool` of two or more workers, each demand's first path is
/// speculated in parallel on the initial residual.  When the demand's turn
/// comes, a speculative path is kept only if every one of its edges still
/// has residual > 1e-9; otherwise the demand reruns its Dijkstra.  The
/// result is bit-identical to the serial pass.  Residuals only fall, so the
/// turn's graph is the initial one with edges removed.  If the speculative
/// path survives, every node on it keeps its distance (hop lengths are
/// exact), and its parent stays the earliest-settled minimal predecessor,
/// because nodes settle in (distance, id) order and removal only shrinks
/// the candidate set.  A speculative "no path" stays "no path".
RoutingResult greedy_route(const graph::GraphView& view,
                           const std::vector<Demand>& demands,
                           util::ThreadPool* pool = nullptr);

/// Exact maximum total routed flow (LP optimum over all paths), solved on a
/// fresh PathLpSession used once.  `pool` goes to the session's
/// set_thread_pool (LP seeding and pricing fan out; the routing is the same
/// at any thread count).
RoutingResult max_routed_flow(const graph::GraphView& view,
                              const std::vector<Demand>& demands,
                              util::ThreadPool* pool = nullptr);

/// Routability with witness: reachability precheck, greedy, exact fallback.
RoutingResult route_demands(const graph::GraphView& view,
                            const std::vector<Demand>& demands);

/// The paper's routability test (eq. 2): true iff the whole demand fits.
bool is_routable(const graph::GraphView& view,
                 const std::vector<Demand>& demands);

}  // namespace netrec::mcf
