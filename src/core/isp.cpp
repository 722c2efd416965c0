#include "core/isp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/bubble.hpp"
#include "core/repair_state.hpp"
#include "graph/betweenness.hpp"
#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/traversal.hpp"
#include "graph/view_cache.hpp"
#include "mcf/path_lp_session.hpp"
#include "mcf/routing.hpp"
#include "mcf/split.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace netrec::core {

namespace {
constexpr double kEps = 1e-9;
/// Demand amounts, split amounts and flow gaps at or below this are zero.
constexpr double kTolerance = 1e-7;
/// Candidate v_BC nodes tried per iteration before the watchdog fires.
constexpr std::size_t kSplitCandidates = 8;
}  // namespace

std::string IspEvent::to_string() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kPrune:
      out << "prune demand#" << demand << " amount " << amount;
      break;
    case Kind::kRepairNode:
      out << "repair node " << node;
      break;
    case Kind::kRepairEdge:
      out << "repair edge " << edge;
      break;
    case Kind::kSplit:
      out << "split demand#" << demand << " via node " << node << " amount "
          << amount;
      break;
    case Kind::kWatchdog:
      out << "watchdog repair along path for demand#" << demand;
      break;
  }
  return out.str();
}

namespace {

/// All mutable ISP state, so helpers can share it without long parameter
/// lists.  Lives for one solve() call.
class Engine {
 public:
  struct DynDemand {
    graph::NodeId source;
    graph::NodeId target;
    double amount;
    int origin;  ///< original demand index
    int uid;     ///< stable identity for PathLpSession row binding
  };

  Engine(const RecoveryProblem& problem, const IspOptions& opt,
         IspStats& stats, bool trace)
      : g_(problem.graph),
        opt_(opt),
        stats_(stats),
        trace_(trace),
        state_(problem.graph),
        residual_(problem.graph.num_edges()),
        endpoint_(problem.graph.num_nodes(), 0),
        bubble_(problem.graph.num_nodes()),
        cache_(problem.graph),
        lp_working_(problem.graph, mcf::PathLpMode::kMaxRouted),
        lp_split_(problem.graph, mcf::PathLpMode::kMaxSplit) {
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      residual_[e] = g_.edge_capacity(e);
    }
    jitter_.assign(g_.num_edges(), 1.0);
    if (opt.length_jitter > 0.0) {
      util::Rng jitter_rng(opt.jitter_seed);
      for (auto& j : jitter_) {
        j = 1.0 + jitter_rng.uniform(0.0, opt.length_jitter);
      }
    }
    for (std::size_t h = 0; h < problem.demands.size(); ++h) {
      const mcf::Demand& d = problem.demands[h];
      if (d.amount <= kEps || d.source == d.target) continue;
      demands_.push_back(
          {d.source, d.target, d.amount, static_cast<int>(h), next_uid_++});
    }
    // Cached snapshots for the whole solve.  Residual tests stay OUT of
    // the filters (the algorithms skip drained arcs per call) so residual
    // consumption is a weight refresh; repairs flip working-filter verdicts
    // and rebuild exactly the slots whose membership changed.
    graph::ViewConfig working_config;
    working_config.edge_ok = [this](graph::EdgeId e) {
      return state_.edge_ok(e);
    };
    working_config.capacity = residual_view();
    slot_working_ = cache_.add_config(std::move(working_config));
    graph::ViewConfig full_config;
    full_config.capacity = residual_view();
    slot_full_ = cache_.add_config(std::move(full_config));
    graph::ViewConfig metric_config;
    metric_config.length = dynamic_length();
    metric_config.capacity = residual_view();
    slot_metric_ = cache_.add_config(std::move(metric_config));
    if (opt_.use_classic_betweenness) {
      // Residual-positive membership: a residual hitting zero flips the
      // verdict and the cache escalates the refresh to a rebuild.
      graph::ViewConfig usable_config;
      usable_config.edge_ok = [this](graph::EdgeId e) {
        return residual_[static_cast<std::size_t>(e)] > kEps;
      };
      usable_config.length = dynamic_length();
      slot_usable_ = cache_.add_config(std::move(usable_config));
    }
    state_.publish_to(&cache_);
    // Intra-solve worker pool.  Borrowed or privately owned, every kernel
    // below receives the same pool; results are thread-count-invariant by
    // the kernels' fixed merge orders.
    pool_ = util::ThreadPool::acquire(owned_pool_, opt_.solve_threads,
                                      opt_.pool);
    // Persistent path-LP state for the per-iteration probes: the
    // routability test (kMaxRouted on the working view) and the split
    // probes (kMaxSplit on the full view).  Registered on the cache so the
    // same repair/residual events that refresh the snapshots also
    // invalidate columns and capacity rows.
    lp_working_.set_thread_pool(pool_);
    lp_split_.set_thread_pool(pool_);
    cache_.add_listener(&lp_working_);
    cache_.add_listener(&lp_split_);
  }

  RepairState& state() { return state_; }
  util::ThreadPool* pool() const { return pool_; }

  // --- cached views --------------------------------------------------------

  const graph::GraphView& working_view() { return cache_.view(slot_working_); }
  const graph::GraphView& full_view() { return cache_.view(slot_full_); }
  const graph::GraphView& metric_view() { return cache_.view(slot_metric_); }
  const graph::GraphView& usable_view() { return cache_.view(slot_usable_); }

  /// Consumes residual capacity and publishes the (weight-only) mutation.
  void consume_residual(graph::EdgeId e, double amount) {
    auto& r = residual_[static_cast<std::size_t>(e)];
    r = std::max(0.0, r - amount);
    ++residual_epoch_;
    cache_.invalidate_edge(e);
  }

  // --- capacity / metric views --------------------------------------------

  graph::EdgeWeight residual_view() const {
    return [this](graph::EdgeId e) {
      return residual_[static_cast<std::size_t>(e)];
    };
  }

  /// `base` plus the pending repair cost of edge e: its own cost if it is
  /// broken and not yet listed, and half the cost of each such endpoint.
  double pending_cost(graph::EdgeId e, double base) const {
    const auto [eu, ev] = g_.edge_endpoints(e);
    if (g_.edge_broken(e) && !state_.edge_repaired(e)) {
      base += g_.edge_repair_cost(e);
    }
    if (g_.node_broken(eu) && !state_.node_repaired(eu)) {
      base += g_.node_repair_cost(eu) / 2.0;
    }
    if (g_.node_broken(ev) && !state_.node_repaired(ev)) {
      base += g_.node_repair_cost(ev) / 2.0;
    }
    return base;
  }

  /// The dynamic length metric (Section IV-D): repair costs of still-broken,
  /// not-yet-listed elements, normalised by residual capacity.
  graph::EdgeWeight dynamic_length() const {
    return [this](graph::EdgeId e) {
      const double k = pending_cost(e, opt_.metric_const);
      const double c = residual_[static_cast<std::size_t>(e)];
      return k * jitter_[static_cast<std::size_t>(e)] / std::max(c, 1e-6);
    };
  }

  std::vector<mcf::Demand> current_demands() const {
    std::vector<mcf::Demand> out;
    out.reserve(demands_.size());
    for (const auto& d : demands_) {
      out.push_back(mcf::Demand{d.source, d.target, d.amount});
    }
    return out;
  }

  std::vector<mcf::PathLpSession::DemandSpec> current_demand_specs() const {
    std::vector<mcf::PathLpSession::DemandSpec> out;
    out.reserve(demands_.size());
    for (const auto& d : demands_) {
      out.push_back({d.uid, mcf::Demand{d.source, d.target, d.amount}});
    }
    return out;
  }

  bool demands_empty() const { return demands_.empty(); }

  // --- termination test ----------------------------------------------------

  bool routable_on_working() {
    if (demands_.empty()) return true;
    return mcf::is_routable(lp_working_, working_view(),
                            current_demand_specs());
  }

  // --- prune ---------------------------------------------------------------

  /// Attempts a bubble prune of demand `h`; returns pruned amount.  The
  /// endpoint marks are set by prune_phase for the current demand list.
  double try_prune(std::size_t h) {
    auto& dem = demands_[h];
    // With a single remaining demand no conflict exists, so the bubble's
    // boundary (Definition 2) need not be checked.
    if (!find_bubble(working_view(), state_, residual_, endpoint_,
                     dem.source, dem.target, demands_.size() > 1, bubble_)) {
      return 0.0;
    }

    // Max flow inside the bubble on working edges and residual capacities.
    const auto flow = graph::max_flow(working_view(), dem.source, dem.target,
                                      residual_, bubble_.in_bubble());
    const double k = std::min(flow.value, dem.amount);
    if (k <= kTolerance) return 0.0;

    // Route k units along the decomposition, consuming residual capacity.
    auto paths = graph::decompose_flow(g_, dem.source, dem.target,
                                       flow.edge_flow);
    double remaining = k;
    for (auto& [path, amount] : paths) {
      if (remaining <= kEps) break;
      const double take = std::min(amount, remaining);
      for (graph::EdgeId e : path.edges) consume_residual(e, take);
      mcf::PathFlow pf;
      pf.demand_index = dem.origin;
      pf.path = std::move(path);
      pf.amount = take;
      pruned_flows_.push_back(std::move(pf));
      remaining -= take;
    }
    const double pruned = k - remaining;
    dem.amount -= pruned;
    ++stats_.prunes;
    if (trace_) {
      stats_.events.push_back(IspEvent{IspEvent::Kind::kPrune,
                                       static_cast<int>(h),
                                       graph::kInvalidNode,
                                       graph::kInvalidEdge, pruned});
    }
    return pruned;
  }

  /// Full prune sweep; returns true if anything was pruned.
  bool prune_phase() {
    bool any = false;
    bool progress = true;
    std::size_t guard = 0;
    const std::size_t guard_limit = 4 * (g_.num_edges() + demands_.size()) + 16;
    while (progress && guard++ < guard_limit) {
      progress = false;
      // A pass changes amounts only, so its walls stay fixed throughout.
      mark_endpoints(1);
      for (std::size_t h = 0; h < demands_.size(); ++h) {
        if (demands_[h].amount <= kTolerance) continue;
        if (try_prune(h) > 0.0) {
          progress = true;
          any = true;
        }
      }
      mark_endpoints(0);
      compact_demands();
    }
    return any;
  }

  void mark_endpoints(char mark) {
    for (const auto& d : demands_) {
      endpoint_[static_cast<std::size_t>(d.source)] = mark;
      endpoint_[static_cast<std::size_t>(d.target)] = mark;
    }
  }

  // --- direct demand-edge repair (Section IV-E) ---------------------------

  bool direct_edge_repairs() {
    bool any = false;
    const auto length = dynamic_length();
    for (const auto& dem : demands_) {
      if (dem.amount <= kTolerance) continue;
      const graph::EdgeId e = g_.find_edge(dem.source, dem.target);
      if (e == graph::kInvalidEdge) continue;
      if (!g_.edge_broken(e) || state_.edge_repaired(e)) continue;
      // "cannot be satisfied by any working path (including L(n))".
      // (Views re-fetched per demand: a repair below invalidates them.)
      const auto flow =
          graph::max_flow(working_view(), dem.source, dem.target, residual_);
      if (flow.value >= dem.amount - kTolerance) continue;
      // Interpretation choice (README, "Where netrec departs from the
      // paper"): only repair the direct edge when it is also a cheapest
      // dynamic-metric route — with the paper's homogeneous costs this
      // always holds, but it stops the rule from buying an expensive
      // shortcut past a cheap corridor.
      const auto tree = graph::dijkstra_residual_to(
          metric_view(), dem.source, dem.target, residual_);
      if (tree.reached(dem.target) &&
          tree.distance[static_cast<std::size_t>(dem.target)] <
              length(e) - 1e-12) {
        continue;
      }
      state_.repair_edge(e);
      ++stats_.direct_edge_repairs;
      if (trace_) {
        stats_.events.push_back(IspEvent{IspEvent::Kind::kRepairEdge, -1,
                                         graph::kInvalidNode, e, 0.0});
      }
      any = true;
    }
    return any;
  }

  // --- split ---------------------------------------------------------------

  /// A contributor of v_BC that may split through it, with its path
  /// capacity through v_BC.
  struct Admissible {
    std::size_t demand;
    double through;
  };

  bool split_phase() {
    // The metric view carries the dynamic lengths and residual capacities;
    // the pool fans the per-demand enumerations out (fixed-order merge:
    // bit-identical).
    const auto centrality = demand_based_centrality(
        metric_view(), current_demands(), pool_);
    std::vector<graph::NodeId> ranking;
    std::vector<double> ranking_score;
    if (opt_.use_classic_betweenness) {
      // Ablation: classic betweenness ignores demands and capacities; the
      // demand path sets are still needed for split-candidate selection.
      ranking_score = graph::betweenness_centrality(usable_view());
      ranking.resize(g_.num_nodes());
      std::iota(ranking.begin(), ranking.end(), 0);
      std::stable_sort(ranking.begin(), ranking.end(),
                       [&](graph::NodeId a, graph::NodeId b) {
                         return ranking_score[static_cast<std::size_t>(a)] >
                                ranking_score[static_cast<std::size_t>(b)];
                       });
    } else {
      ranking = centrality.ranking();
      ranking_score = centrality.scores();
    }

    std::size_t tried = 0;
    for (graph::NodeId vbc : ranking) {
      if (tried >= kSplitCandidates) break;
      if (ranking_score[static_cast<std::size_t>(vbc)] <= kTolerance) {
        break;
      }
      ++tried;

      // Candidate demands: contributors whose endpoints differ from v_BC,
      // ranked by decision 1.
      std::vector<Admissible> admissible;
      for (int h : centrality.contributors(vbc)) {
        const auto& dem = demands_[static_cast<std::size_t>(h)];
        if (dem.source == vbc || dem.target == vbc) continue;
        if (dem.amount <= kTolerance) continue;
        const double through =
            centrality.capacity_through(h, vbc, g_);
        if (through <= kEps) continue;
        admissible.push_back({static_cast<std::size_t>(h), through});
      }
      refresh_full_flows(admissible);
      struct Candidate {
        std::size_t demand;
        double ratio;
      };
      std::vector<Candidate> candidates;
      for (const Admissible& a : admissible) {
        const auto& dem = demands_[a.demand];
        const double flow_value = full_flow_cache_.at(dem.uid).second;
        if (flow_value <= kEps) continue;  // infeasible even on full graph
        candidates.push_back(
            {a.demand, std::min(dem.amount, a.through) / flow_value});
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.ratio > b.ratio;
                       });

      // Faithful to the paper: the selected v_BC is repaired *before* the
      // split decision.  High-centrality demand endpoints (which never admit
      // a split through themselves) are repaired exactly this way.
      const bool repaired_vbc = repair_node_listed(vbc);

      for (const Candidate& cand : candidates) {
        const auto& dem = demands_[cand.demand];
        // full_view() re-fetched per candidate: repairing v_BC above only
        // refreshed weights, but staying synced is the cache's job, not
        // this loop's.
        const double dx = mcf::max_splittable_amount(
            lp_split_, full_view(), current_demand_specs(),
            static_cast<int>(cand.demand), vbc);
        if (dx <= kTolerance) continue;
        apply_split(cand.demand, vbc, std::min(dx, dem.amount));
        return true;
      }
      // No demand could be split here; repairing v_BC alone still counts as
      // progress (it changes the metric and the working graph), otherwise
      // move on to the next-ranked node.
      if (repaired_vbc) return true;
    }
    return false;
  }

  /// Brings full_flow_cache_ up to date for the given demands.  The full
  /// view has no filters, so its max flows depend only on the residual
  /// capacities: one value per demand uid stays exact until the next
  /// consume_residual (value-identical reuse across candidate nodes *and*
  /// across prune-free iterations).  The stale flows fan out on the pool
  /// into per-demand slots, then land in the memo serially.
  void refresh_full_flows(const std::vector<Admissible>& admissible) {
    std::vector<std::size_t> stale;
    for (const Admissible& a : admissible) {
      const auto it = full_flow_cache_.find(demands_[a.demand].uid);
      if (it == full_flow_cache_.end() ||
          it->second.first != residual_epoch_) {
        stale.push_back(a.demand);
      }
    }
    if (stale.empty()) return;
    const graph::GraphView& full = full_view();  // synced before the fan-out
    std::vector<double> flows(stale.size());
    util::ThreadPool::for_each(pool_, stale.size(), [&](std::size_t i) {
      const auto& dem = demands_[stale[i]];
      flows[i] =
          graph::max_flow(full, dem.source, dem.target, residual_).value;
    });
    for (std::size_t i = 0; i < stale.size(); ++i) {
      full_flow_cache_[demands_[stale[i]].uid] = {residual_epoch_, flows[i]};
    }
  }

  bool repair_node_listed(graph::NodeId v) {
    if (!state_.repair_node(v)) return false;
    if (trace_) {
      stats_.events.push_back(IspEvent{IspEvent::Kind::kRepairNode, -1, v,
                                       graph::kInvalidEdge, 0.0});
    }
    return true;
  }

  void apply_split(std::size_t h, graph::NodeId via, double dx) {
    auto& dem = demands_[h];
    const auto source = dem.source;
    const auto target = dem.target;
    const int origin = dem.origin;
    dem.amount -= dx;
    demands_.push_back({source, via, dx, origin, next_uid_++});
    demands_.push_back({via, target, dx, origin, next_uid_++});
    ++stats_.splits;
    if (trace_) {
      stats_.events.push_back(IspEvent{IspEvent::Kind::kSplit,
                                       static_cast<int>(h), via,
                                       graph::kInvalidEdge, dx});
    }
    compact_demands();
  }

  void compact_demands() {
    demands_.erase(
        std::remove_if(demands_.begin(), demands_.end(),
                       [this](const auto& d) {
                         return d.amount <= kTolerance ||
                                d.source == d.target;
                       }),
        demands_.end());
  }

  // --- watchdog -------------------------------------------------------------

  /// Forces progress when an iteration made none.  First tries repairing
  /// every broken element on a cheapest dynamic-metric path of the hardest
  /// unsatisfied demand (cheap, concentrating).  If that path carries no
  /// broken element — the stall is a capacity conflict, not missing
  /// elements — falls back to an *exact completion*: solve the residual
  /// instance's eq.-(8) LP on the full graph (minimising not-yet-repaired
  /// cost) and repair everything its witness routing touches.  The
  /// completion either proves infeasibility or leaves the instance routable
  /// on the working graph, preserving ISP's no-demand-loss guarantee.
  bool watchdog() {
    ++stats_.watchdog_activations;
    // Hardest = largest unroutable amount on the working graph.  The
    // per-demand flows are independent reads of one synced view (fetched
    // here: the cache's lazy sync is not thread-safe), so they fan out;
    // the argmax stays a serial pass in demand order.
    const graph::GraphView& working = working_view();
    std::vector<double> flows(demands_.size());
    util::ThreadPool::for_each(pool_, demands_.size(), [&](std::size_t h) {
      const auto& dem = demands_[h];
      flows[h] =
          graph::max_flow(working, dem.source, dem.target, residual_).value;
    });
    std::size_t worst = demands_.size();
    double worst_gap = kTolerance;
    for (std::size_t h = 0; h < demands_.size(); ++h) {
      const double gap = demands_[h].amount - flows[h];
      if (gap > worst_gap) {
        worst_gap = gap;
        worst = h;
      }
    }
    if (worst == demands_.size()) {
      // Every demand fits individually yet the joint test failed: a pure
      // capacity conflict, resolvable only by the exact completion.
      return exact_completion();
    }
    const auto& dem = demands_[worst];
    const auto path =
        graph::dijkstra_residual_to(metric_view(), dem.source, dem.target,
                                    residual_)
            .path_to(g_, dem.target);
    bool repaired = false;
    if (path) {
      graph::NodeId at = path->start;
      repaired |= state_.repair_node(at);
      for (graph::EdgeId e : path->edges) {
        repaired |= state_.repair_edge(e);
        at = g_.other_endpoint(e, at);
        repaired |= state_.repair_node(at);
      }
    }
    if (!repaired) repaired = exact_completion();
    if (trace_) {
      stats_.events.push_back(IspEvent{IspEvent::Kind::kWatchdog,
                                       static_cast<int>(worst),
                                       graph::kInvalidNode,
                                       graph::kInvalidEdge, 0.0});
    }
    return repaired;
  }

  /// Routes the residual demand on the full graph with an LP that prices
  /// still-broken elements by repair cost, then repairs everything the
  /// witness routing uses.  Returns false iff the residual instance is
  /// infeasible even with every remaining element repaired.
  bool exact_completion() {
    // Per-call session: the completion re-prices every column against the
    // live repair state and its witness support drives discrete repair
    // choices, so nothing is carried across calls — the session API is
    // used for the shared machinery (pool install, warm rounds within this
    // one converging solve), not persistence.
    mcf::PathLpSession lp(g_, mcf::PathLpMode::kMinCost);
    lp.set_min_cost_objective(
        [this](graph::EdgeId e) { return pending_cost(e, 0.0); });
    lp.set_thread_pool(pool_);
    const mcf::PathLpResult result =
        lp.solve(full_view(), current_demand_specs());
    if (!result.routing.fully_routed) return false;

    // Candidate repairs: every pending element the witness routing touches.
    // The LP prices flow linearly, so it happily spreads across parallel
    // broken paths (the paper's own eq.-(8) critique); a one-pass minimal-
    // subset filter keeps only the candidates routability actually needs.
    std::vector<char> cand_node(g_.num_nodes(), 0);
    std::vector<char> cand_edge(g_.num_edges(), 0);
    for (const mcf::PathFlow& flow : result.routing.flows) {
      if (flow.amount <= kTolerance) continue;
      for (graph::NodeId n : flow.path.nodes(g_)) {
        if (g_.node_broken(n) && !state_.node_repaired(n)) {
          cand_node[static_cast<std::size_t>(n)] = 1;
        }
      }
      for (graph::EdgeId e : flow.path.edges) {
        if (g_.edge_broken(e) && !state_.edge_repaired(e)) {
          cand_edge[static_cast<std::size_t>(e)] = 1;
        }
      }
    }
    auto hypothetical = [&](graph::EdgeId e) {
      if (residual_[static_cast<std::size_t>(e)] <= kEps) return false;
      const auto [eu, ev] = g_.edge_endpoints(e);
      auto node_ok = [&](graph::NodeId n) {
        return state_.node_ok(n) || cand_node[static_cast<std::size_t>(n)];
      };
      const bool edge_fixed = !g_.edge_broken(e) || state_.edge_repaired(e) ||
                              cand_edge[static_cast<std::size_t>(e)];
      return edge_fixed && node_ok(eu) && node_ok(ev);
    };
    auto still_routable = [&]() {
      graph::ViewConfig config;
      config.edge_ok = hypothetical;
      config.capacity = residual_view();
      return mcf::is_routable(graph::GraphView::build(g_, config),
                              current_demands());
    };
    // Drop candidates greedily (most expensive first) while routability
    // holds; each keep/drop decision is one exact test.
    struct Cand {
      bool is_node;
      int id;
      double cost;
    };
    std::vector<Cand> order;
    for (std::size_t n = 0; n < g_.num_nodes(); ++n) {
      if (cand_node[n]) {
        order.push_back({true, static_cast<int>(n),
                         g_.node_repair_cost(static_cast<graph::NodeId>(n))});
      }
    }
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      if (cand_edge[e]) {
        order.push_back({false, static_cast<int>(e),
                         g_.edge_repair_cost(static_cast<graph::EdgeId>(e))});
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Cand& a, const Cand& b) {
                       return a.cost > b.cost;
                     });
    for (const Cand& c : order) {
      auto& flag = c.is_node ? cand_node[static_cast<std::size_t>(c.id)]
                             : cand_edge[static_cast<std::size_t>(c.id)];
      flag = 0;
      if (!still_routable()) flag = 1;
    }

    bool repaired = false;
    for (std::size_t n = 0; n < g_.num_nodes(); ++n) {
      if (cand_node[n]) {
        repaired |= state_.repair_node(static_cast<graph::NodeId>(n));
      }
    }
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      if (cand_edge[e]) {
        repaired |= state_.repair_edge(static_cast<graph::EdgeId>(e));
      }
    }
    // Nothing broken on the witness routing means the demand is already
    // routable on the working graph; report progress so the main loop
    // re-tests and terminates.
    return repaired || result.routing.fully_routed;
  }

  const std::vector<mcf::PathFlow>& pruned_flows() const {
    return pruned_flows_;
  }

  std::vector<DynDemand> demands_;

 private:
  const graph::Graph& g_;
  const IspOptions& opt_;
  IspStats& stats_;
  bool trace_;
  RepairState state_;
  std::vector<double> residual_;
  std::vector<double> jitter_;
  std::vector<mcf::PathFlow> pruned_flows_;
  /// Prune-sweep scratch: every demand endpoint marked during a pass, and
  /// the bubble test's reusable membership mask.
  std::vector<char> endpoint_;
  BubbleWorkspace bubble_;
  /// RepairState publishes repairs into it and consume_residual publishes
  /// capacity updates.
  graph::ViewCache cache_;
  graph::ViewCache::SlotId slot_working_ = 0;
  graph::ViewCache::SlotId slot_full_ = 0;
  graph::ViewCache::SlotId slot_metric_ = 0;
  graph::ViewCache::SlotId slot_usable_ = 0;
  /// Intra-solve worker pool: owned_pool_ engages only when the options
  /// request threads without lending a pool; pool_ is null for the serial
  /// reference.  Declared before the sessions that borrow it (reverse
  /// destruction keeps the pool alive past its borrowers).
  std::optional<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  /// Persistent path-LP masters, fed by the cache's mutation fan-out.
  /// Declared after cache_ (they are registered listeners; both die with
  /// the Engine, cache last).
  mcf::PathLpSession lp_working_;
  mcf::PathLpSession lp_split_;
  int next_uid_ = 0;
  /// Bumped by consume_residual; versions the full-graph flow memo below.
  std::uint64_t residual_epoch_ = 0;
  /// uid -> (residual epoch, full-view max-flow value).
  std::unordered_map<int, std::pair<std::uint64_t, double>> full_flow_cache_;
};

}  // namespace

IspSolver::IspSolver(const RecoveryProblem& problem, IspOptions options)
    : problem_(problem), opt_(options) {}

RecoverySolution IspSolver::solve() {
  util::Timer timer;
  stats_ = IspStats{};

  RecoverySolution solution;
  solution.algorithm = "ISP";
  solution.instance_feasible = true;

  Engine engine(problem_, opt_, stats_, trace_);

  bool routed = false;
  while (stats_.iterations < opt_.max_iterations) {
    if ((opt_.deadline != nullptr && opt_.deadline->expired()) ||
        FAULT_POINT("isp.deadline")) {
      throw DeadlineExceeded("isp: solve deadline exceeded after " +
                             std::to_string(stats_.iterations) +
                             " iterations");
    }
    ++stats_.iterations;
    if (opt_.enable_prune) {
      engine.prune_phase();
      engine.compact_demands();
    }
    if (engine.demands_empty() || engine.routable_on_working()) {
      routed = true;
      break;
    }

    if (opt_.enable_direct_edge_repair && engine.direct_edge_repairs()) {
      continue;
    }
    if (engine.split_phase()) continue;
    if (!engine.watchdog()) break;  // nothing more can be done
  }

  // Theorem 4's premise (see isp.hpp): a loop that ends routed has proved
  // it; one that stops unrouted tests it on static capacities, since the
  // residuals are consumed by now.
  if (!routed && !problem_.feasible_when_fully_repaired()) {
    solution.instance_feasible = false;
    NETREC_LOG(kWarn) << "ISP: instance infeasible even with full repair";
  }

  solution.repaired_nodes = engine.state().repaired_nodes();
  solution.repaired_edges = engine.state().repaired_edges();
  solution.iterations = stats_.iterations;
  score_solution(problem_, solution, engine.pool());
  solution.wall_seconds = timer.elapsed_seconds();
  return solution;
}

}  // namespace netrec::core
