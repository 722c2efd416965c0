// Path-LP sessions: the one column-generation engine for the master
// problem of mcf/path_lp.hpp, with column-pool + warm-basis reuse across
// the nearly identical master LPs ISP solves every iteration.
//
// One ISP solve issues hundreds of master LPs — a routability probe per
// iteration, a kMaxSplit probe per (demand, v_BC) candidate — and
// consecutive instances differ only by one repair and a few residual
// updates.  A persistent session carries its state across them, mirroring
// what graph::ViewCache did for snapshots:
//
//   * the column (path) pool persists — paths are stored once, keyed by
//     their endpoint pair, and installed as master columns per demand row;
//     a demand created by a split immediately inherits every pooled path
//     between its endpoints instead of re-running seed enumeration;
//   * per-column arc incidence persists — every edge knows the columns
//     whose paths cross it, so a mutation event invalidates exactly those
//     columns and a lazily created capacity row back-fills exactly those
//     coefficients;
//   * the lp::Basis persists — re-solves warm-start from the previous
//     optimum, and appended rows/columns degrade to a partial (not full)
//     cold start (lp::Basis).
//
// A one-shot solve (mcf::max_routed_flow, min_broken_usage, each
// explore_optimal_face sample, ISP's exact completion) is a fresh session
// used once; indexed_specs() binds a plain demand list to uids.  A session
// over a graph of at most 160 edges creates every capacity row eagerly;
// above that, capacity rows are created lazily when found violated
// mid-solve and appended to the warm basis, never cold-restarted, in
// one-use and persistent sessions alike.
//
// Invalidation contract (the same mutation events graph::ViewCache
// consumes; a session registers as a graph::MutationListener on the
// cache so RepairState / residual publishers need no extra calls):
//   * on_edge_invalidated(e) — e is queued dirty.  At the next solve the
//     session re-reads e from the borrowed view: its capacity row (if any)
//     gets the live rhs, an eagerly managed row is appended if e just
//     became usable, kMinCost column costs crossing e are re-priced, and
//     every pooled column whose path crosses e is re-validated — a path
//     with a dead edge (drained or out of view) deactivates its column
//     (variable fixed to 0), never to return (ISP usability is monotone:
//     repairs only add edges, residuals only drain).
//   * on_node_invalidated(n) — every incident edge is queued dirty.
//   * on_epoch_bumped() — anything may have changed: the session drops
//     the model, pool and basis and rebuilds from scratch on next use.
//
// Demand identity: callers tag each demand with a stable uid (ISP's
// dynamic demands carry one across prune/split rewrites).  A uid binds to
// one master row for the session's lifetime — amounts update the rhs and
// the shortfall bound in place, a vanished uid zeroes its row, a new uid
// appends one.  kMaxSplit probes reuse two dedicated half rows and one dx
// variable, rewired per (split demand, via) probe, so probing every
// centrality candidate against the same demand set shares one master.
//
// Reuse is an accelerator, not a new algorithm: a warm session converges
// by the same exact pricing rule as a fresh one, so objectives,
// routability verdicts and split amounts agree (tests/test_path_lp.cpp
// pins a warm session against a fresh one on the same view;
// tests/golden/isp_corpus.txt was recorded while ISP on sessions and ISP
// on one-shot LPs agreed exactly, and tests/golden/lp_corpus.txt pins the
// one-shot consumers).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "graph/view_cache.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/types.hpp"

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::mcf {

class PathLpSession : public graph::MutationListener {
 public:
  /// A demand plus the caller's stable identity for it (see header).
  struct DemandSpec {
    int uid = -1;
    Demand demand;
  };

  /// The session prices and routes on borrowed views over `g` (passed per
  /// solve; typically ViewCache slots).  `mode` is fixed for the session's
  /// lifetime; kMinCost additionally needs set_min_cost_objective().
  PathLpSession(const graph::Graph& g, PathLpMode mode);

  /// kMinCost objective callback; retained, must outlive the session.
  void set_min_cost_objective(graph::EdgeWeight edge_cost);

  /// Adds an optimal-face pinning row (kMinCost only, before the first
  /// solve; otherwise throws std::logic_error).  Its rows follow the demand
  /// rows in the master, ahead of any capacity row.
  void add_cost_bound(PathCostBound bound);

  /// Seeding and pricing parallelism.  A call's seed enumerations (one per
  /// unpooled endpoint pair, in the serial request order: split halves,
  /// then unseeded rows ascending) read only the view, and within one
  /// pricing round every binding's threshold and target-stopped Dijkstra
  /// read only that round's duals, the borrowed view and the reduced-cost
  /// weights — installing a column never changes another pair's or
  /// binding's compute.  So both fan out on `pool`, and the resulting
  /// paths pool and install serially in the serial sweep's order.  Same
  /// install order means the same pool indices, master columns and simplex
  /// trajectory: results are bit-identical to the serial session at any
  /// thread count.
  /// nullptr (the default) restores the all-serial sweep; the pool must
  /// outlive the session or a later set_thread_pool(nullptr).
  void set_thread_pool(util::ThreadPool* pool) { thread_pool_ = pool; }

  /// Solves the session's master for the current demand set (kMaxRouted /
  /// kMinCost modes).  `view` must be freshly synced (ViewCache::view).
  PathLpResult solve(const graph::GraphView& view,
                     const std::vector<DemandSpec>& demands);

  /// kMaxRouted only: stops as soon as a master solution routes the whole
  /// demand over a capacity-feasible load (every violated edge has been
  /// given its row), skipping the pricing sweep that would merely certify
  /// LP optimality.  The routability verdict is identical — pricing can
  /// only confirm a full routing — but a YES probe costs one warm
  /// re-solve instead of one re-solve plus a Dijkstra per demand.  The
  /// returned routing is a witness, not necessarily an LP optimum
  /// (`converged` reports whether optimality was actually proven).
  PathLpResult solve_routability(const graph::GraphView& view,
                                 const std::vector<DemandSpec>& demands);

  /// kMaxSplit probe: max dx of demand `split_index` (into `demands`)
  /// splittable through `via`.
  PathLpResult solve_split(const graph::GraphView& view,
                           const std::vector<DemandSpec>& demands,
                           int split_index, graph::NodeId via);

  // --- graph::MutationListener ---------------------------------------------
  void on_edge_invalidated(graph::EdgeId e) override;
  void on_node_invalidated(graph::NodeId n) override;
  void on_epoch_bumped() override;

  /// Session effectiveness counters (cumulative).
  struct Stats {
    std::size_t solves = 0;            ///< solve()/solve_split() calls
    std::size_t rounds = 0;            ///< master LP solves
    std::size_t columns_installed = 0; ///< master columns created
    std::size_t columns_reused = 0;    ///< pool paths installed without SSP
    std::size_t columns_deactivated = 0;
    std::size_t duplicates_skipped = 0;  ///< pricing re-derived a live column
    std::size_t seed_runs = 0;         ///< successive-shortest-path sweeps
    std::size_t resets = 0;            ///< epoch bumps (full rebuilds)
  };
  const Stats& stats() const { return stats_; }

 private:
  /// One pooled path (stored once; columns reference it by index).
  struct PoolPath {
    graph::Path path;
    bool dead = false;  ///< an edge died; can never come back (monotone)
  };

  /// Column bindings: a demand row (index into demand_rows_) or one of the
  /// two split half rows.
  static constexpr int kHalfA = -1;
  static constexpr int kHalfB = -2;

  struct Column {
    int binding = 0;     ///< demand_rows_ index, or kHalfA / kHalfB
    int pool_index = -1;
    int var = -1;
    bool active = false;
  };

  struct DemandRow {
    int uid = -1;
    Demand demand;
    int row = -1;
    int shortfall_var = -1;
    int spec_index = -1;  ///< position in the current call's spec vector
    bool seeded = false;
    bool retired = false;  ///< uid vanished; row zeroed, columns parked
  };

  void reset();
  bool edge_usable(const graph::GraphView& view, graph::EdgeId e) const;
  bool path_alive(const graph::GraphView& view, const graph::Path& p) const;
  void mark_dirty(graph::EdgeId e);
  void process_dirty(const graph::GraphView& view);
  void sync_demands(const std::vector<DemandSpec>& specs);
  /// Fresh seed paths of one master call, keyed by endpoint pair.
  using SeedTable = std::unordered_map<std::uint64_t, std::vector<graph::Path>>;
  void wire_split(const graph::GraphView& view, int split_index,
                  graph::NodeId via, SeedTable& seeds);
  void add_capacity_row(const graph::GraphView& view, graph::EdgeId e);
  double column_cost(const graph::Path& path) const;
  int model_row(int binding) const;
  std::uint64_t pair_key(graph::NodeId s, graph::NodeId t) const;
  std::uint64_t column_key(int binding, const graph::Path& path) const;
  int pool_add(graph::NodeId s, graph::NodeId t, graph::Path path);
  /// Installs (or reactivates) the column (binding, pool_index); returns
  /// its column index, or -1 when it already exists active (duplicate) or
  /// the pooled path is dead.
  int install_column(const graph::GraphView& view, int binding,
                     int pool_index);
  bool pair_pooled(std::uint64_t key) const;
  /// Runs the successive-shortest-path enumerations this call's seeding
  /// will ask for — the split's half bindings, then the unseeded rows
  /// ascending — once per unpooled endpoint pair, from its first request's
  /// amount.  The enumerations fan out on the pool; the table is consumed
  /// serially by seed_binding.
  SeedTable enumerate_seeds(const graph::GraphView& view) const;
  /// Seeds a binding from the pool, first pooling the pair's enumerated
  /// seeds from `seeds` when the endpoint pair has no pooled paths yet.
  void seed_binding(const graph::GraphView& view, int binding,
                    graph::NodeId s, graph::NodeId t, double amount,
                    SeedTable& seeds);
  void seed_row(const graph::GraphView& view, int row_index,
                SeedTable& seeds);
  void deactivate_column(int column_index);
  PathLpResult run_master(const graph::GraphView& view,
                          const std::vector<DemandSpec>& specs);

  const graph::Graph& g_;
  PathLpMode mode_;
  graph::EdgeWeight objective_edge_cost_;
  util::ThreadPool* thread_pool_ = nullptr;  ///< borrowed; see set_thread_pool

  bool initialized_ = false;
  bool eager_ = false;
  lp::Model model_;
  lp::Basis basis_;

  std::vector<DemandRow> demand_rows_;
  std::unordered_map<int, int> row_of_uid_;
  std::vector<int> row_of_spec_;  ///< per current-call spec index

  std::vector<PoolPath> pool_;
  std::unordered_map<std::uint64_t, std::vector<int>> pool_by_pair_;

  std::vector<Column> columns_;
  std::unordered_map<std::uint64_t, std::vector<int>> columns_by_key_;
  std::vector<std::vector<int>> columns_of_edge_;
  std::vector<std::vector<int>> columns_of_row_;  ///< per demand_rows_ index
  std::vector<int> half_columns_;                 ///< bound to either half row

  std::vector<int> capacity_row_;  ///< per edge id, -1 = none

  std::vector<PathCostBound> cost_bounds_;
  std::vector<int> bound_row_;  ///< per cost bound, created at first build

  // kMaxSplit probe wiring (rewired per solve_split call).
  int half_row_[2] = {-1, -1};
  int dx_var_ = -1;
  int split_row_index_ = -1;  ///< demand_rows_ index of the probed demand
  graph::NodeId half_via_ = graph::kInvalidNode;
  int pending_split_index_ = -1;          ///< staged by solve_split
  graph::NodeId pending_split_via_ = graph::kInvalidNode;
  bool stop_when_fully_routed_ = false;   ///< staged by solve_routability

  std::vector<graph::EdgeId> dirty_;
  std::vector<char> dirty_mark_;

  Stats stats_;
};

/// Specs with uid = index, the binding of a session used for one solve.
std::vector<PathLpSession::DemandSpec> indexed_specs(
    const std::vector<Demand>& demands);

}  // namespace netrec::mcf
