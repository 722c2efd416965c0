#include "mcf/path_lp_session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "graph/dijkstra.hpp"
#include "graph/simple_paths.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace netrec::mcf {

namespace {
constexpr double kEps = 1e-9;

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}
}  // namespace

PathLpSession::PathLpSession(const graph::Graph& g, PathLpMode mode,
                             PathLpOptions options)
    : g_(g), mode_(mode), opt_(options) {
  lp_options_.warm_append = true;  // appended rows degrade, not cold-start
  dirty_mark_.assign(g_.num_edges(), 0);
  columns_of_edge_.resize(g_.num_edges());
  capacity_row_.assign(g_.num_edges(), -1);
}

void PathLpSession::set_min_cost_objective(graph::EdgeWeight edge_cost) {
  if (mode_ != PathLpMode::kMinCost) {
    throw std::logic_error("PathLpSession: objective requires kMinCost mode");
  }
  objective_edge_cost_ = std::move(edge_cost);
}

void PathLpSession::add_cost_bound(PathCostBound bound) {
  if (mode_ != PathLpMode::kMinCost) {
    throw std::logic_error("PathLpSession: cost bounds require kMinCost mode");
  }
  if (stats_.solves > 0) {
    throw std::logic_error(
        "PathLpSession: cost bounds must precede the first solve");
  }
  cost_bounds_.push_back(std::move(bound));
}

PathLpResult PathLpSession::solve(const graph::GraphView& view,
                                  const std::vector<DemandSpec>& demands) {
  if (mode_ == PathLpMode::kMaxSplit) {
    throw std::logic_error("PathLpSession: use solve_split in kMaxSplit mode");
  }
  if (mode_ == PathLpMode::kMinCost && !objective_edge_cost_) {
    throw std::logic_error("PathLpSession: kMinCost objective not set");
  }
  stop_when_fully_routed_ = false;  // full convergence for plain solves
  return run_master(view, demands);
}

PathLpResult PathLpSession::solve_routability(
    const graph::GraphView& view, const std::vector<DemandSpec>& demands) {
  if (mode_ != PathLpMode::kMaxRouted) {
    throw std::logic_error(
        "PathLpSession: solve_routability requires kMaxRouted");
  }
  stop_when_fully_routed_ = true;
  PathLpResult result = run_master(view, demands);
  stop_when_fully_routed_ = false;
  return result;
}

PathLpResult PathLpSession::solve_split(const graph::GraphView& view,
                                        const std::vector<DemandSpec>& demands,
                                        int split_index, graph::NodeId via) {
  if (mode_ != PathLpMode::kMaxSplit) {
    throw std::logic_error("PathLpSession: solve_split requires kMaxSplit");
  }
  if (split_index < 0 ||
      split_index >= static_cast<int>(demands.size())) {
    throw std::invalid_argument("PathLpSession: split index out of range");
  }
  pending_split_index_ = split_index;
  pending_split_via_ = via;
  return run_master(view, demands);
}

// --- mutation fan-out --------------------------------------------------------

void PathLpSession::on_edge_invalidated(graph::EdgeId e) { mark_dirty(e); }

void PathLpSession::on_node_invalidated(graph::NodeId n) {
  for (graph::EdgeId e : g_.incident_edges(n)) mark_dirty(e);
}

void PathLpSession::on_epoch_bumped() {
  ++stats_.resets;
  reset();
}

void PathLpSession::mark_dirty(graph::EdgeId e) {
  if (dirty_mark_[static_cast<std::size_t>(e)]) return;
  dirty_mark_[static_cast<std::size_t>(e)] = 1;
  dirty_.push_back(e);
}

void PathLpSession::reset() {
  initialized_ = false;
  model_ = lp::Model{};
  basis_ = lp::Basis{};
  demand_rows_.clear();
  row_of_uid_.clear();
  row_of_spec_.clear();
  pool_.clear();
  pool_by_pair_.clear();
  columns_.clear();
  columns_by_key_.clear();
  columns_of_edge_.assign(g_.num_edges(), {});
  columns_of_row_.clear();
  half_columns_.clear();
  capacity_row_.assign(g_.num_edges(), -1);
  bound_row_.clear();
  half_row_[0] = half_row_[1] = -1;
  dx_var_ = -1;
  split_row_index_ = -1;
  half_via_ = graph::kInvalidNode;
  dirty_.clear();
  dirty_mark_.assign(g_.num_edges(), 0);
}

// --- element / path validity -------------------------------------------------

bool PathLpSession::edge_usable(const graph::GraphView& view,
                                graph::EdgeId e) const {
  // Cached views keep drained edges as arcs, so membership alone is not
  // usability.
  return view.edge_in_view(e) && view.edge_capacity(e) > kEps;
}

bool PathLpSession::path_alive(const graph::GraphView& view,
                               const graph::Path& p) const {
  for (graph::EdgeId e : p.edges) {
    if (!edge_usable(view, e)) return false;
  }
  return true;
}

// --- incremental model maintenance ------------------------------------------

void PathLpSession::process_dirty(const graph::GraphView& view) {
  for (graph::EdgeId e : dirty_) {
    dirty_mark_[static_cast<std::size_t>(e)] = 0;
    const int row = capacity_row_[static_cast<std::size_t>(e)];
    if (row >= 0) {
      model_.constraint(row).rhs =
          view.edge_in_view(e) ? view.edge_capacity(e) : 0.0;
    } else if (eager_ && edge_usable(view, e)) {
      // Eagerly managed master: a repaired edge just entered the usable
      // set, so its capacity row appears now (back-filling any columns).
      add_capacity_row(view, e);
    }
    for (int c : columns_of_edge_[static_cast<std::size_t>(e)]) {
      Column& col = columns_[static_cast<std::size_t>(c)];
      PoolPath& pp = pool_[static_cast<std::size_t>(col.pool_index)];
      if (!pp.dead && !path_alive(view, pp.path)) pp.dead = true;
      if (pp.dead) {
        if (col.active) deactivate_column(c);
        continue;
      }
      if (mode_ == PathLpMode::kMinCost) {
        // Repair-state-dependent objective: re-price the surviving column.
        model_.variable(col.var).cost = column_cost(pp.path);
      }
    }
  }
  dirty_.clear();
}

void PathLpSession::sync_demands(const std::vector<DemandSpec>& specs) {
  row_of_spec_.assign(specs.size(), -1);
  for (DemandRow& dr : demand_rows_) dr.spec_index = -1;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DemandSpec& spec = specs[i];
    auto it = row_of_uid_.find(spec.uid);
    int idx;
    if (it == row_of_uid_.end()) {
      idx = static_cast<int>(demand_rows_.size());
      DemandRow dr;
      dr.uid = spec.uid;
      dr.demand = spec.demand;
      if (mode_ == PathLpMode::kMaxRouted) {
        dr.row = model_.add_constraint(lp::Sense::kLessEqual,
                                       spec.demand.amount);
      } else {
        dr.row = model_.add_constraint(lp::Sense::kEqual, spec.demand.amount);
        // Shortfall keeps the master feasible with an empty column pool.
        dr.shortfall_var =
            model_.add_variable(0.0, spec.demand.amount, opt_.big_m);
        model_.set_coefficient(dr.row, dr.shortfall_var, 1.0);
      }
      demand_rows_.push_back(dr);
      columns_of_row_.emplace_back();
      row_of_uid_.emplace(spec.uid, idx);
    } else {
      idx = it->second;
      DemandRow& dr = demand_rows_[static_cast<std::size_t>(idx)];
      dr.retired = false;
      dr.demand.amount = spec.demand.amount;
      model_.constraint(dr.row).rhs = spec.demand.amount;
      if (dr.shortfall_var >= 0) {
        model_.variable(dr.shortfall_var).upper = spec.demand.amount;
      }
    }
    demand_rows_[static_cast<std::size_t>(idx)].spec_index =
        static_cast<int>(i);
    row_of_spec_[i] = idx;
  }
  // A uid absent from this call keeps its row, zeroed: rhs 0 forces its
  // columns out of the flow, the shortfall bound closes, and the columns
  // are parked so the simplex skips them outright.
  for (std::size_t i = 0; i < demand_rows_.size(); ++i) {
    DemandRow& dr = demand_rows_[i];
    if (dr.spec_index >= 0 || dr.retired) continue;
    dr.retired = true;
    model_.constraint(dr.row).rhs = 0.0;
    if (dr.shortfall_var >= 0) model_.variable(dr.shortfall_var).upper = 0.0;
    for (int c : columns_of_row_[i]) deactivate_column(c);
  }
}

void PathLpSession::wire_split(const graph::GraphView& view, int split_index,
                               graph::NodeId via) {
  if (half_row_[0] < 0) {
    half_row_[0] = model_.add_constraint(lp::Sense::kEqual, 0.0);
    half_row_[1] = model_.add_constraint(lp::Sense::kEqual, 0.0);
  }
  const int new_split_row = row_of_spec_[static_cast<std::size_t>(split_index)];
  const bool same_probe =
      new_split_row == split_row_index_ && via == half_via_;
  split_row_index_ = new_split_row;
  half_via_ = via;
  const Demand& d =
      demand_rows_[static_cast<std::size_t>(split_row_index_)].demand;

  if (same_probe && dx_var_ >= 0) {
    model_.variable(dx_var_).upper = d.amount;
  } else {
    // A probe change retires the old dx (fixed to 0) and mints a fresh
    // one.  Never rewrite an existing variable's column: a basis slot
    // covering the old split row through dx would lose its only nonzero
    // in that row and the decoded warm basis would go singular.
    if (dx_var_ >= 0) model_.variable(dx_var_).upper = 0.0;
    dx_var_ = model_.add_variable(0.0, d.amount, -1.0);  // min -dx == max dx
    model_.set_coefficient(
        demand_rows_[static_cast<std::size_t>(split_row_index_)].row, dx_var_,
        1.0);
    model_.set_coefficient(half_row_[0], dx_var_, -1.0);
    model_.set_coefficient(half_row_[1], dx_var_, -1.0);
    // Park the previous probe's half columns; matching ones are revived by
    // the install pass below (same via => same (endpoint, path) keys).
    for (int c : half_columns_) deactivate_column(c);
  }

  seed_binding(view, kHalfA, d.source, via, d.amount);
  seed_binding(view, kHalfB, via, d.target, d.amount);
}

void PathLpSession::add_capacity_row(const graph::GraphView& view,
                                     graph::EdgeId e) {
  const int row =
      model_.add_constraint(lp::Sense::kLessEqual, view.edge_capacity(e));
  capacity_row_[static_cast<std::size_t>(e)] = row;
  for (int c : columns_of_edge_[static_cast<std::size_t>(e)]) {
    model_.set_coefficient(row, columns_[static_cast<std::size_t>(c)].var,
                           1.0);
  }
}

double PathLpSession::column_cost(const graph::Path& path) const {
  switch (mode_) {
    case PathLpMode::kMaxRouted:
      return -1.0;
    case PathLpMode::kMaxSplit:
      return 0.0;
    case PathLpMode::kMinCost: {
      double c = 0.0;
      for (graph::EdgeId e : path.edges) c += objective_edge_cost_(e);
      return c;
    }
  }
  return 0.0;
}

int PathLpSession::model_row(int binding) const {
  if (binding >= 0) {
    return demand_rows_[static_cast<std::size_t>(binding)].row;
  }
  return binding == kHalfA ? half_row_[0] : half_row_[1];
}

std::uint64_t PathLpSession::pair_key(graph::NodeId s,
                                      graph::NodeId t) const {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(t));
}

std::uint64_t PathLpSession::column_key(int binding,
                                        const graph::Path& path) const {
  std::uint64_t h =
      hash_mix(0x243f6a8885a308d3ULL,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(binding)));
  for (graph::EdgeId e : path.edges) {
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e)));
  }
  return h;
}

int PathLpSession::pool_add(graph::NodeId s, graph::NodeId t,
                            graph::Path path) {
  std::vector<int>& list = pool_by_pair_[pair_key(s, t)];
  for (int pi : list) {
    if (pool_[static_cast<std::size_t>(pi)].path.edges == path.edges) {
      return pi;  // same arc set for the same pair: already pooled
    }
  }
  const int pi = static_cast<int>(pool_.size());
  pool_.push_back(PoolPath{std::move(path), false});
  list.push_back(pi);
  return pi;
}

int PathLpSession::install_column(const graph::GraphView& view, int binding,
                                  int pool_index) {
  const graph::Path& path =
      pool_[static_cast<std::size_t>(pool_index)].path;
  const std::uint64_t key = column_key(binding, path);
  std::vector<int>& bucket = columns_by_key_[key];
  for (int c : bucket) {
    Column& col = columns_[static_cast<std::size_t>(c)];
    if (col.binding != binding) continue;
    if (pool_[static_cast<std::size_t>(col.pool_index)].path.edges !=
        path.edges) {
      continue;  // hash collision
    }
    if (col.active) {
      ++stats_.duplicates_skipped;
      return -1;
    }
    if (!path_alive(view, path)) return -1;  // parked and dead: stays out
    col.active = true;
    model_.variable(col.var).upper = lp::kInfinity;
    return c;
  }
  const int index = static_cast<int>(columns_.size());
  Column col;
  col.binding = binding;
  col.pool_index = pool_index;
  col.active = true;
  col.var = model_.add_variable(0.0, lp::kInfinity, column_cost(path));
  model_.set_coefficient(model_row(binding), col.var, 1.0);
  for (std::size_t b = 0; b < cost_bounds_.size(); ++b) {
    double c = 0.0;
    for (graph::EdgeId e : path.edges) c += cost_bounds_[b].edge_cost(e);
    if (c != 0.0) model_.set_coefficient(bound_row_[b], col.var, c);
  }
  for (graph::EdgeId e : path.edges) {
    const int row = capacity_row_[static_cast<std::size_t>(e)];
    if (row >= 0) model_.set_coefficient(row, col.var, 1.0);
    columns_of_edge_[static_cast<std::size_t>(e)].push_back(index);
  }
  if (binding >= 0) {
    columns_of_row_[static_cast<std::size_t>(binding)].push_back(index);
  } else {
    half_columns_.push_back(index);
  }
  columns_.push_back(std::move(col));
  bucket.push_back(index);
  ++stats_.columns_installed;
  return index;
}

void PathLpSession::deactivate_column(int column_index) {
  Column& col = columns_[static_cast<std::size_t>(column_index)];
  if (!col.active) return;
  col.active = false;
  model_.variable(col.var).upper = 0.0;  // fixed out of the master
  ++stats_.columns_deactivated;
}

void PathLpSession::seed_binding(const graph::GraphView& view, int binding,
                                 graph::NodeId s, graph::NodeId t,
                                 double amount) {
  if (s == t || amount <= kEps) return;
  const std::uint64_t key = pair_key(s, t);
  bool pooled = false;
  {
    auto it = pool_by_pair_.find(key);
    pooled = it != pool_by_pair_.end() && !it->second.empty();
  }
  if (!pooled && opt_.seed_paths_per_demand > 0) {
    ++stats_.seed_runs;
    // Target-stopped variant: same seed paths, cheaper settle order.
    auto seeds = graph::successive_shortest_paths_to(
        view, s, t, amount, opt_.seed_paths_per_demand);
    for (auto& p : seeds.paths) pool_add(s, t, std::move(p));
  }
  auto it = pool_by_pair_.find(key);
  if (it == pool_by_pair_.end()) return;
  // Index loop: install_column may grow other containers but not this list.
  for (std::size_t k = 0; k < it->second.size(); ++k) {
    const int pi = it->second[k];
    PoolPath& pp = pool_[static_cast<std::size_t>(pi)];
    if (pp.dead) continue;
    if (!path_alive(view, pp.path)) {
      pp.dead = true;
      continue;
    }
    if (install_column(view, binding, pi) >= 0 && pooled) {
      ++stats_.columns_reused;
    }
  }
}

void PathLpSession::seed_row(const graph::GraphView& view, int row_index) {
  DemandRow& dr = demand_rows_[static_cast<std::size_t>(row_index)];
  dr.seeded = true;
  seed_binding(view, row_index, dr.demand.source, dr.demand.target,
               dr.demand.amount);
}

// --- the master --------------------------------------------------------------

PathLpResult PathLpSession::run_master(const graph::GraphView& view,
                                       const std::vector<DemandSpec>& specs) {
  ++stats_.solves;
  const bool first = !initialized_;
  if (first) {
    eager_ = g_.num_edges() <= opt_.eager_capacity_threshold;
    initialized_ = true;
    // Mutations observed before the first master existed have nothing to
    // patch; the model below is built from the live view directly.
    for (graph::EdgeId e : dirty_) {
      dirty_mark_[static_cast<std::size_t>(e)] = 0;
    }
    dirty_.clear();
  } else {
    process_dirty(view);
  }

  sync_demands(specs);
  if (mode_ == PathLpMode::kMaxSplit) {
    wire_split(view, pending_split_index_, pending_split_via_);
  }
  if (first) {
    for (const PathCostBound& bound : cost_bounds_) {
      bound_row_.push_back(
          model_.add_constraint(lp::Sense::kLessEqual, bound.rhs));
    }
  }
  if (first && eager_) {
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if (edge_usable(view, id)) add_capacity_row(view, id);
    }
  }
  for (std::size_t i = 0; i < demand_rows_.size(); ++i) {
    const DemandRow& dr = demand_rows_[i];
    if (dr.spec_index >= 0 && !dr.seeded) seed_row(view, static_cast<int>(i));
  }

  // --- column generation (exact pricing; the basis and pool carry over
  // between rounds *and* between calls) -----------------------------------
  lp::Solution lp_solution;
  bool converged = false;
  double spec_total = 0.0;  // degenerate (s==t) demands route trivially
  for (const DemandSpec& spec : specs) {
    if (spec.demand.source != spec.demand.target) {
      spec_total += spec.demand.amount;
    }
  }

  for (std::size_t round = 0; round < opt_.max_rounds; ++round) {
    ++stats_.rounds;
    lp_solution = lp::solve(model_, lp_options_, &basis_);
    if (lp_solution.status != lp::SolveStatus::kOptimal) {
      NETREC_LOG(kWarn) << "PathLpSession master returned "
                        << lp::to_string(lp_solution.status);
      break;
    }

    // Lazy capacity rows: activate every violated edge, then re-solve.
    // There is no cold restart here — the appended rows degrade the warm
    // basis, they do not discard it.
    if (!eager_) {
      std::vector<double> load(g_.num_edges(), 0.0);
      for (const Column& col : columns_) {
        if (!col.active) continue;
        const double x = lp_solution.x[static_cast<std::size_t>(col.var)];
        if (x <= kEps) continue;
        for (graph::EdgeId e :
             pool_[static_cast<std::size_t>(col.pool_index)].path.edges) {
          load[static_cast<std::size_t>(e)] += x;
        }
      }
      bool added_row = false;
      for (std::size_t e = 0; e < g_.num_edges(); ++e) {
        if (capacity_row_[e] >= 0) continue;
        const auto id = static_cast<graph::EdgeId>(e);
        if (load[e] > view.edge_capacity(id) + opt_.tolerance) {
          add_capacity_row(view, id);
          added_row = true;
        }
      }
      if (added_row) continue;
    }

    // Routability early-stop: the load scan above guarantees the master's
    // flow fits every edge, so total routed == demand already answers the
    // probe; pricing could only re-confirm it.
    if (stop_when_fully_routed_ &&
        -lp_solution.objective >= spec_total - 1e-6) {
      break;
    }

    // Pricing: shortest path per demand under reduced-cost edge weights.
    std::vector<double> edge_weight(g_.num_edges(), 0.0);
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if (!edge_usable(view, id)) continue;
      double w = 0.0;
      const int row = capacity_row_[e];
      if (row >= 0) w -= lp_solution.duals[static_cast<std::size_t>(row)];
      if (mode_ == PathLpMode::kMinCost) {
        w += objective_edge_cost_(id);
        for (std::size_t b = 0; b < cost_bounds_.size(); ++b) {
          w -= lp_solution.duals[static_cast<std::size_t>(bound_row_[b])] *
               cost_bounds_[b].edge_cost(id);
        }
      }
      edge_weight[e] = std::max(w, 0.0);
    }

    // The jobs are listed in the serial sweep's order (demand rows
    // ascending, then the split half rows).  A binding's threshold and
    // target-stopped Dijkstra read only this round's duals, the view and
    // edge_weight — an install never feeds back into another binding's
    // compute within one round — so the compute stage fans out on the
    // pool and the install stage runs serially in job order, reproducing
    // the serial sweep's pool indices and column order exactly.
    struct PricingJob {
      int binding;
      graph::NodeId s;
      graph::NodeId t;
      double amount;
      std::optional<graph::Path> path;
    };
    std::vector<PricingJob> jobs;
    for (std::size_t i = 0; i < demand_rows_.size(); ++i) {
      const DemandRow& dr = demand_rows_[i];
      if (dr.spec_index < 0) continue;
      jobs.push_back({static_cast<int>(i), dr.demand.source, dr.demand.target,
                      dr.demand.amount, std::nullopt});
    }
    if (mode_ == PathLpMode::kMaxSplit) {
      const Demand& sd =
          demand_rows_[static_cast<std::size_t>(split_row_index_)].demand;
      jobs.push_back({kHalfA, sd.source, half_via_, sd.amount, std::nullopt});
      jobs.push_back({kHalfB, half_via_, sd.target, sd.amount, std::nullopt});
    }
    const auto price_job = [&](std::size_t j) {
      PricingJob& job = jobs[j];
      if (job.s == job.t || job.amount <= kEps) return;
      const double y_h =
          lp_solution.duals[static_cast<std::size_t>(model_row(job.binding))];
      const double threshold =
          (mode_ == PathLpMode::kMaxRouted ? 1.0 + y_h : y_h) -
          opt_.tolerance * 10.0;
      if (threshold <= 0.0) return;  // no path can improve
      auto tree = graph::dijkstra_to(view, job.s, job.t, edge_weight,
                                     view.edge_capacities());
      if (!tree.reached(job.t)) return;
      if (tree.distance[static_cast<std::size_t>(job.t)] < threshold) {
        job.path = std::move(*tree.path_to(g_, job.t));
      }
    };
    if (thread_pool_ != nullptr && thread_pool_->size() > 1 &&
        jobs.size() > 1) {
      thread_pool_->parallel_for(jobs.size(), price_job);
    } else {
      for (std::size_t j = 0; j < jobs.size(); ++j) price_job(j);
    }
    bool added_column = false;
    for (PricingJob& job : jobs) {
      if (!job.path.has_value()) continue;
      const int pi = pool_add(job.s, job.t, std::move(*job.path));
      if (install_column(view, job.binding, pi) >= 0) added_column = true;
    }
    if (!added_column) {
      converged = true;
      break;
    }
  }

  // --- result extraction ----------------------------------------------------
  PathLpResult result;
  const int n_user = static_cast<int>(specs.size());
  result.converged =
      converged && lp_solution.status == lp::SolveStatus::kOptimal;
  result.shortfall.assign(static_cast<std::size_t>(n_user), 0.0);
  result.routing.routed.assign(static_cast<std::size_t>(n_user), 0.0);
  if (lp_solution.status != lp::SolveStatus::kOptimal) return result;

  for (int h = 0; h < n_user; ++h) {
    const Demand& d = specs[static_cast<std::size_t>(h)].demand;
    if (d.source == d.target && d.amount > 0.0) {
      result.routing.routed[static_cast<std::size_t>(h)] = d.amount;
      result.routing.total_routed += d.amount;
    }
  }
  for (const Column& col : columns_) {
    if (!col.active) continue;
    const double x = lp_solution.x[static_cast<std::size_t>(col.var)];
    if (x <= opt_.tolerance) continue;
    int demand_index;
    if (col.binding >= 0) {
      const int spec =
          demand_rows_[static_cast<std::size_t>(col.binding)].spec_index;
      if (spec < 0) continue;  // retired rows carry no flow (rhs 0)
      demand_index = spec;
      result.routing.routed[static_cast<std::size_t>(spec)] += x;
      result.routing.total_routed += x;
    } else {
      demand_index = n_user + (col.binding == kHalfA ? 0 : 1);
    }
    PathFlow flow;
    flow.demand_index = demand_index;
    flow.path = pool_[static_cast<std::size_t>(col.pool_index)].path;
    flow.amount = x;
    result.routing.flows.push_back(std::move(flow));
  }
  double total_shortfall = 0.0;
  for (const DemandRow& dr : demand_rows_) {
    if (dr.shortfall_var < 0) continue;
    const double s = lp_solution.x[static_cast<std::size_t>(dr.shortfall_var)];
    if (dr.spec_index >= 0) {
      result.shortfall[static_cast<std::size_t>(dr.spec_index)] = s;
    }
    total_shortfall += s;
  }

  switch (mode_) {
    case PathLpMode::kMaxRouted: {
      result.objective = -lp_solution.objective;
      double covered = 0.0;
      std::vector<Demand> user;
      user.reserve(specs.size());
      for (int h = 0; h < n_user; ++h) {
        const Demand& d = specs[static_cast<std::size_t>(h)].demand;
        user.push_back(d);
        covered += std::min(result.routing.routed[static_cast<std::size_t>(h)],
                            d.amount);
      }
      result.routing.fully_routed = covered >= total_demand(user) - 1e-6;
      break;
    }
    case PathLpMode::kMinCost:
      result.objective =
          lp_solution.objective - opt_.big_m * total_shortfall;
      result.routing.fully_routed = total_shortfall <= 1e-6;
      break;
    case PathLpMode::kMaxSplit:
      result.objective =
          dx_var_ >= 0
              ? lp_solution.x[static_cast<std::size_t>(dx_var_)]
              : 0.0;
      result.routing.fully_routed = total_shortfall <= 1e-6;
      break;
  }
  return result;
}

std::vector<PathLpSession::DemandSpec> indexed_specs(
    const std::vector<Demand>& demands) {
  std::vector<PathLpSession::DemandSpec> specs;
  specs.reserve(demands.size());
  for (std::size_t h = 0; h < demands.size(); ++h) {
    specs.push_back({static_cast<int>(h), demands[h]});
  }
  return specs;
}

}  // namespace netrec::mcf
