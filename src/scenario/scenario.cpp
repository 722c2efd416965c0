#include "scenario/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "graph/traversal.hpp"
#include "graph/view.hpp"
#include "util/log.hpp"

namespace netrec::scenario {

namespace {

using NodePair = std::pair<graph::NodeId, graph::NodeId>;

/// Every pair (i, j), i < j, at least `min_hops` apart, in lexicographic
/// order.  Pair (i, j) is out iff j is within min_hops - 1 hops of i.  Hop
/// distance is symmetric on the full view, so the sources near i are also
/// the targets near i: the clear bits of sources_near(b, i) are the
/// admissible j of batch b, 64 per word.
std::vector<NodePair> admissible_pairs(const graph::GraphView& view,
                                       int min_hops) {
  const graph::NearMatrix near = graph::near_matrix(view, min_hops - 1);
  const std::size_t n = view.num_nodes();
  const std::size_t batches = near.num_batches();
  // Admissible j > i among nodes 64 * b ... 64 * b + 63.
  const auto far_word = [&](std::size_t i, std::size_t b) {
    std::uint64_t word = ~near.sources_near(b, static_cast<graph::NodeId>(i));
    if (b == i / 64) word &= ~((std::uint64_t{2} << (i % 64)) - 1);
    if (b + 1 == batches && n % 64 != 0) {
      word &= (std::uint64_t{1} << (n % 64)) - 1;
    }
    return word;
  };
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = i / 64; b < batches; ++b) {
      count += static_cast<std::size_t>(std::popcount(far_word(i, b)));
    }
  }
  std::vector<NodePair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = i / 64; b < batches; ++b) {
      for (std::uint64_t word = far_word(i, b); word != 0; word &= word - 1) {
        pairs.emplace_back(
            static_cast<graph::NodeId>(i),
            static_cast<graph::NodeId>(64 * b + static_cast<std::size_t>(
                                                    std::countr_zero(word))));
      }
    }
  }
  return pairs;
}

}  // namespace

std::vector<mcf::Demand> far_apart_demands(const graph::Graph& g,
                                           std::size_t pairs, double amount,
                                           util::Rng& rng,
                                           double min_distance_factor) {
  // One full-graph snapshot serves both multi-source BFS passes.
  const graph::GraphView view = graph::GraphView::build(g);
  const int diameter = graph::hop_diameter(view);
  if (diameter < 0) {
    throw std::invalid_argument("far_apart_demands: disconnected supply graph");
  }
  const int min_hops = static_cast<int>(
      std::ceil(diameter * min_distance_factor));
  auto admissible = admissible_pairs(view, min_hops);
  std::shuffle(admissible.begin(), admissible.end(), rng);

  // Prefer pairs with fresh endpoints so demands do not collapse onto a few
  // hubs; relax the restriction when the graph runs out of fresh nodes.
  std::vector<mcf::Demand> demands;
  std::vector<char> used(g.num_nodes(), 0);
  for (int pass = 0; pass < 2 && demands.size() < pairs; ++pass) {
    for (const auto& [a, b] : admissible) {
      if (demands.size() >= pairs) break;
      if (pass == 0 && (used[static_cast<std::size_t>(a)] ||
                        used[static_cast<std::size_t>(b)])) {
        continue;
      }
      const bool duplicate =
          std::any_of(demands.begin(), demands.end(), [&](const auto& d) {
            return (d.source == a && d.target == b) ||
                   (d.source == b && d.target == a);
          });
      if (duplicate) continue;
      demands.push_back(mcf::Demand{a, b, amount});
      used[static_cast<std::size_t>(a)] = 1;
      used[static_cast<std::size_t>(b)] = 1;
    }
  }
  if (demands.size() < pairs) {
    NETREC_LOG(kWarn) << "far_apart_demands: only " << demands.size() << "/"
                      << pairs << " pairs at distance >= " << min_hops;
  }
  return demands;
}

void record_solution(const core::RecoverySolution& solution,
                     util::MetricSet& metrics) {
  metrics.add("edge_repairs",
              static_cast<double>(solution.repaired_edges.size()));
  metrics.add("node_repairs",
              static_cast<double>(solution.repaired_nodes.size()));
  metrics.add("total_repairs", static_cast<double>(solution.total_repairs()));
  metrics.add("repair_cost", solution.repair_cost);
  metrics.add("satisfied_pct", solution.satisfied_fraction * 100.0);
  metrics.add("wall_seconds", solution.wall_seconds);
}

namespace {

// Odd multiplier (golden-ratio constant) decorrelating per-cell streams
// derived from one run seed; Rng's SplitMix64 seeding scrambles the rest.
constexpr std::uint64_t kCellSalt = 0x9e3779b97f4a7c15ULL;

/// Redraws per run when RunnerOptions::require_feasible rejects a draw.
constexpr std::size_t kMaxRedraws = 25;

/// One run's constructed problem (ok == false when no feasible draw was
/// found within the redraw budget).
struct BuiltRun {
  core::RecoveryProblem problem;
  bool ok = false;
};

/// Builds one run's problem from its fixed seed.  Every attempt forks a
/// child stream from the run's own seed, so the result depends only on
/// (run_seed, options) — never on which thread executes the build.
BuiltRun build_run(const ProblemFactory& factory, const RunnerOptions& options,
                   std::size_t run, std::uint64_t run_seed) {
  util::Rng run_master(run_seed);
  BuiltRun slot;
  for (std::size_t attempt = 0; attempt <= kMaxRedraws; ++attempt) {
    util::Rng attempt_rng = run_master.fork();
    slot.problem = factory(attempt_rng);
    if (!options.require_feasible ||
        slot.problem.feasible_when_fully_repaired()) {
      slot.ok = true;
      return slot;
    }
  }
  NETREC_LOG(kWarn) << "run " << run << ": no feasible draw found; skipping";
  return slot;
}

}  // namespace

AggregateResult run_matrix(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, Cell>>& cells,
    const RunnerOptions& options) {
  // Per-run seeds are fixed serially up front; everything downstream derives
  // from them, which is what makes the parallel schedule irrelevant to the
  // aggregated output.
  util::Rng master(options.seed);
  std::vector<std::uint64_t> run_seeds(options.runs);
  for (auto& seed : run_seeds) seed = master.next();

  std::vector<BuiltRun> slots(options.runs);
  const std::size_t num_cells = cells.size();
  std::vector<CellRecord> records(options.runs * num_cells);

  const auto build = [&](std::size_t run) {
    slots[run] = build_run(factory, options, run, run_seeds[run]);
  };
  const auto run_cell = [&](std::size_t task) {
    const std::size_t run = task / num_cells;
    const std::size_t cell = task % num_cells;
    if (!slots[run].ok) return;
    RunContext ctx;
    ctx.run_index = run;
    ctx.run_seed = run_seeds[run];
    ctx.rng.reseed(run_seeds[run] +
                   kCellSalt * (static_cast<std::uint64_t>(cell) + 1));
    records[task] = cells[cell].second(slots[run].problem, ctx);
  };

  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool* pool =
      util::ThreadPool::acquire(owned_pool, options.threads, options.pool);
  if (pool != nullptr && pool->size() > 1) {
    // Builds are cheap relative to cells: chunk them so a large sweep pays
    // one dispatch per batch, not per run.  Cells stay grain 1 — each is a
    // full solve or staged recovery, so finer dispatch buys load balance.
    const std::size_t build_grain =
        std::max<std::size_t>(1, options.runs / (4 * pool->size()));
    pool->parallel_for(options.runs, build_grain, build);
    pool->parallel_for(options.runs * num_cells, 1, run_cell);
  } else {
    for (std::size_t run = 0; run < options.runs; ++run) build(run);
    for (std::size_t task = 0; task < options.runs * num_cells; ++task) {
      run_cell(task);
    }
  }

  // Serial merge in (run, cell) order: Welford accumulation is order
  // sensitive in floating point, so the merge order must not depend on task
  // completion order.
  AggregateResult out;
  out.cell_names.reserve(num_cells);
  for (const auto& cell : cells) out.cell_names.push_back(cell.first);
  for (std::size_t run = 0; run < options.runs; ++run) {
    if (!slots[run].ok) continue;
    const auto& problem = slots[run].problem;
    out.instance.add("broken_nodes",
                     static_cast<double>(problem.graph.num_broken_nodes()));
    out.instance.add("broken_edges",
                     static_cast<double>(problem.graph.num_broken_edges()));
    out.instance.add(
        "broken_total",
        static_cast<double>(problem.graph.num_broken_nodes() +
                            problem.graph.num_broken_edges()));
    out.instance.add("total_demand", problem.total_demand());
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      records[run * num_cells + cell](out.per_cell[out.cell_names[cell]]);
    }
    ++out.completed_runs;
  }
  return out;
}

AggregateResult run_experiment(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, Algorithm>>& algorithms,
    const RunnerOptions& options) {
  std::vector<std::pair<std::string, Cell>> cells;
  cells.reserve(algorithms.size());
  for (const auto& [name, algorithm] : algorithms) {
    cells.emplace_back(name, [&solve = algorithm](
                                 const core::RecoveryProblem& problem,
                                 RunContext& ctx) -> CellRecord {
      return [solution = solve(problem, ctx)](util::MetricSet& metrics) {
        record_solution(solution, metrics);
      };
    });
  }
  return run_matrix(factory, cells, options);
}

}  // namespace netrec::scenario
