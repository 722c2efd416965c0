#include "scenario/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/traversal.hpp"
#include "graph/view.hpp"
#include "util/log.hpp"

namespace netrec::scenario {

namespace {

using NodePair = std::pair<graph::NodeId, graph::NodeId>;

/// The pairs (i, j), i < j, at least `min_hops` apart, addressed by their
/// rank in lexicographic order.  Pair (i, j) is out iff j is within
/// min_hops - 1 hops of i.  Hop distance is symmetric on the full view, so
/// the sources near i are also the targets near i: the clear bits of
/// sources_near(b, i) are the admissible j of batch b, 64 per word.
class AdmissiblePairs {
 public:
  AdmissiblePairs(const graph::GraphView& view, int min_hops)
      : near_(graph::near_matrix(view, min_hops - 1)),
        row_start_(view.num_nodes() + 1, 0) {
    for (std::size_t i = 0; i < near_.num_nodes(); ++i) {
      std::uint64_t count = 0;
      for (std::size_t b = i / 64; b < near_.num_batches(); ++b) {
        count += static_cast<std::uint64_t>(std::popcount(far_word(i, b)));
      }
      row_start_[i + 1] = row_start_[i] + count;
    }
  }

  std::uint64_t size() const { return row_start_.back(); }

  /// The pair of rank `rank`: a binary search over the per-row prefix
  /// counts, then a popcount walk and a select inside the row.
  NodePair operator[](std::uint64_t rank) const {
    const auto row = static_cast<std::size_t>(
        std::upper_bound(row_start_.begin(), row_start_.end(), rank) -
        row_start_.begin() - 1);
    std::uint64_t offset = rank - row_start_[row];
    for (std::size_t b = row / 64;; ++b) {
      std::uint64_t word = far_word(row, b);
      const auto count = static_cast<std::uint64_t>(std::popcount(word));
      if (offset < count) {
        for (; offset > 0; --offset) word &= word - 1;
        return pair(row, b, word);
      }
      offset -= count;
    }
  }

  /// Every pair, in rank order.
  std::vector<NodePair> all() const {
    std::vector<NodePair> out;
    out.reserve(size());
    for (std::size_t i = 0; i < near_.num_nodes(); ++i) {
      for (std::size_t b = i / 64; b < near_.num_batches(); ++b) {
        for (std::uint64_t word = far_word(i, b); word != 0;
             word &= word - 1) {
          out.push_back(pair(i, b, word));
        }
      }
    }
    return out;
  }

 private:
  /// Admissible j > i among nodes 64 * b ... 64 * b + 63.
  std::uint64_t far_word(std::size_t i, std::size_t b) const {
    std::uint64_t word = ~near_.sources_near(b, static_cast<graph::NodeId>(i));
    if (b == i / 64) word &= ~((std::uint64_t{2} << (i % 64)) - 1);
    const std::size_t n = near_.num_nodes();
    if (b + 1 == near_.num_batches() && n % 64 != 0) {
      word &= (std::uint64_t{1} << (n % 64)) - 1;
    }
    return word;
  }

  /// Row i's pair at the lowest set bit of its batch-b word.
  static NodePair pair(std::size_t i, std::size_t b, std::uint64_t word) {
    return {static_cast<graph::NodeId>(i),
            static_cast<graph::NodeId>(
                64 * b + static_cast<std::size_t>(std::countr_zero(word)))};
  }

  graph::NearMatrix near_;
  std::vector<std::uint64_t> row_start_;  ///< rank of row i's first pair
};

/// The first `stored` slots of the sequence 0, 1, ..., size - 1 after
/// std::shuffle(first, last, rng).  The shuffle runs over the whole
/// virtual sequence, but a slot at or past `stored` reads as its own index
/// and drops writes.  libstdc++'s std::shuffle is a forward Fisher-Yates:
/// step p swaps slot p with a slot <= p, so the only value it moves into a
/// lower slot is slot p's untouched original, p.  The stored slots
/// therefore end equal to the first `stored` entries of the shuffled
/// sequence, and the RNG makes exactly the draws of a full shuffle.  Other
/// standard libraries may shuffle differently; the ScenarioPlacement
/// differential tests (tests/test_scenario_engine.cpp) are the guard.
class ShuffleWindow {
 public:
  ShuffleWindow(std::uint64_t size, std::uint64_t stored, util::Rng& rng)
      : slots_(stored) {
    std::iota(slots_.begin(), slots_.end(), std::uint64_t{0});
    std::shuffle(Iterator{this, 0}, Iterator{this, size}, rng);
  }

  std::uint64_t operator[](std::uint64_t p) const { return slots_[p]; }

 private:
  /// Proxy reference to slot p.
  struct Slot {
    ShuffleWindow* window;
    std::uint64_t p;

    operator std::uint64_t() const {
      return p < window->slots_.size() ? window->slots_[p] : p;
    }
    Slot& operator=(std::uint64_t value) {
      if (p < window->slots_.size()) window->slots_[p] = value;
      return *this;
    }
    Slot& operator=(const Slot& other) {
      return *this = static_cast<std::uint64_t>(other);
    }
    friend void swap(Slot a, Slot b) {
      const auto value = static_cast<std::uint64_t>(a);
      a = static_cast<std::uint64_t>(b);
      b = value;
    }
  };

  struct Iterator {
    using iterator_category = std::random_access_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Slot;

    ShuffleWindow* window;
    std::uint64_t p;

    Slot operator*() const { return {window, p}; }
    Iterator& operator++() {
      ++p;
      return *this;
    }
    Iterator operator++(int) { return {window, p++}; }
    Iterator operator+(difference_type n) const {
      return {window, p + static_cast<std::uint64_t>(n)};
    }
    difference_type operator-(const Iterator& other) const {
      return static_cast<difference_type>(p - other.p);
    }
    bool operator==(const Iterator& other) const { return p == other.p; }
  };

  std::vector<std::uint64_t> slots_;
};

/// Stored slots per requested pair in a windowed shuffle, and their floor.
constexpr std::uint64_t kWindowPerPair = 64;
constexpr std::uint64_t kMinWindow = 1024;

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
  const AdmissiblePairs admissible(view, min_hops);
  const std::uint64_t total = admissible.size();

  // Scans the shuffled pairs in order, twice: first taking only pairs with
  // fresh endpoints, so demands do not collapse onto a few hubs, then any
  // pair not yet taken.  pair_at(p) reads slot p; false when the scan needs
  // slot `readable` or later.
  std::vector<mcf::Demand> demands;
  const auto scan = [&](std::uint64_t readable, const auto& pair_at) {
    demands.clear();
    std::vector<char> used(g.num_nodes(), 0);
    for (int pass = 0; pass < 2 && demands.size() < pairs; ++pass) {
      for (std::uint64_t p = 0; p < total; ++p) {
        if (demands.size() >= pairs) break;
        if (p == readable) return false;
        const auto [a, b] = pair_at(p);
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
    return true;
  };

  // The first pass takes at most n / 2 pairs; asking for more reads every
  // slot, so only a smaller request tries a window first.
  bool placed = false;
  if (pairs < total / kWindowPerPair && 2 * pairs <= g.num_nodes()) {
    const std::uint64_t window =
        std::min(total, std::max(kMinWindow, kWindowPerPair * pairs));
    util::Rng window_rng = rng;
    const ShuffleWindow ranks(total, window, window_rng);
    placed = scan(window,
                  [&](std::uint64_t p) { return admissible[ranks[p]]; });
    if (placed) rng = window_rng;
  }
  if (!placed) {
    // Every slot: the whole list, shuffled with the same draws.
    std::vector<NodePair> shuffled = admissible.all();
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    scan(total, [&](std::uint64_t p) { return shuffled[p]; });
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
