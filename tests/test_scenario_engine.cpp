// Tests for the parallel scenario engine: thread-count invariance of
// aggregated results, per-task RNG determinism, far-apart demand sampling
// (against the list-and-shuffle referee of tests/referees.hpp), and
// SweepRunner CSV/JSON emission round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "disruption/disruption.hpp"
#include "graph/builder.hpp"
#include "heuristics/baselines.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "topology/generator.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

#include "referees.hpp"

namespace netrec {
namespace {

scenario::ProblemFactory bell_factory(std::size_t pairs, double flow) {
  return [pairs, flow](util::Rng& rng) {
    core::RecoveryProblem p;
    p.graph = topology::make_topology({topology::BellCanadaOptions{}});
    p.demands = scenario::far_apart_demands(p.graph, pairs, flow, rng);
    disruption::complete_destruction(p.graph);
    return p;
  };
}

/// Algorithms for the determinism tests: a real deterministic solver plus a
/// synthetic one that leaks its private RNG stream into a metric, so any
/// schedule-dependent seeding shows up as a mean mismatch.
std::vector<std::pair<std::string, scenario::Algorithm>> test_algorithms() {
  return {
      {"SRT",
       [](const core::RecoveryProblem& p, scenario::RunContext&) {
         return heuristics::solve_srt(p);
       }},
      {"rng-probe",
       [](const core::RecoveryProblem& p, scenario::RunContext& ctx) {
         core::RecoverySolution s;
         s.algorithm = "rng-probe";
         core::score_solution(p, s);
         s.repair_cost = ctx.rng.uniform() +
                         static_cast<double>(ctx.run_index) +
                         static_cast<double>(ctx.run_seed % 1000);
         return s;
       }},
  };
}

/// Full-precision equality of two aggregates, ignoring wall_seconds (the
/// only metric that measures real time rather than derived state).
void expect_identical(const scenario::AggregateResult& a,
                      const scenario::AggregateResult& b) {
  ASSERT_EQ(a.completed_runs, b.completed_runs);
  ASSERT_EQ(a.cell_names, b.cell_names);
  ASSERT_EQ(a.per_cell.size(), b.per_cell.size());
  const auto compare_sets = [](const util::MetricSet& x,
                               const util::MetricSet& y) {
    ASSERT_EQ(x.names(), y.names());
    for (const auto& metric : x.names()) {
      if (metric == "wall_seconds") continue;
      const auto& sx = x.get(metric);
      const auto& sy = y.get(metric);
      EXPECT_EQ(sx.count(), sy.count()) << metric;
      EXPECT_EQ(sx.mean(), sy.mean()) << metric;
      EXPECT_EQ(sx.stddev(), sy.stddev()) << metric;
      EXPECT_EQ(sx.min(), sy.min()) << metric;
      EXPECT_EQ(sx.max(), sy.max()) << metric;
      EXPECT_EQ(sx.sum(), sy.sum()) << metric;
    }
  };
  for (const auto& [name, metrics] : a.per_cell) {
    ASSERT_TRUE(b.per_cell.count(name)) << name;
    compare_sets(metrics, b.per_cell.at(name));
  }
  compare_sets(a.instance, b.instance);
}

TEST(ScenarioEngine, AggregateIsBitIdenticalAcrossThreadCounts) {
  scenario::RunnerOptions options;
  options.runs = 5;
  options.seed = 1234;
  options.require_feasible = true;
  const auto algorithms = test_algorithms();

  options.threads = 1;
  const auto serial =
      scenario::run_experiment(bell_factory(3, 10.0), algorithms, options);
  EXPECT_EQ(serial.completed_runs, 5u);
  EXPECT_GT(serial.per_cell.at("SRT").get("total_repairs").mean(), 0.0);

  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const auto parallel =
        scenario::run_experiment(bell_factory(3, 10.0), algorithms, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(serial, parallel);
  }
}

TEST(ScenarioEngine, SharedPoolMatchesOwnedPool) {
  scenario::RunnerOptions options;
  options.runs = 3;
  options.seed = 99;
  const auto algorithms = test_algorithms();
  options.threads = 4;
  const auto owned =
      scenario::run_experiment(bell_factory(2, 5.0), algorithms, options);
  util::ThreadPool pool(4);
  options.pool = &pool;
  const auto shared =
      scenario::run_experiment(bell_factory(2, 5.0), algorithms, options);
  expect_identical(owned, shared);
}

TEST(ScenarioEngine, DifferentSeedsProduceDifferentRngStreams) {
  scenario::RunnerOptions options;
  options.runs = 3;
  options.threads = 1;
  const auto algorithms = test_algorithms();
  options.seed = 1;
  const auto a =
      scenario::run_experiment(bell_factory(2, 5.0), algorithms, options);
  options.seed = 2;
  const auto b =
      scenario::run_experiment(bell_factory(2, 5.0), algorithms, options);
  EXPECT_NE(a.per_cell.at("rng-probe").get("repair_cost").mean(),
            b.per_cell.at("rng-probe").get("repair_cost").mean());
}

TEST(ScenarioEngine, FarApartDemandsAreSeedDeterministic) {
  const graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng a(2024);
  util::Rng b(2024);
  const auto da = scenario::far_apart_demands(g, 4, 10.0, a);
  const auto db = scenario::far_apart_demands(g, 4, 10.0, b);
  ASSERT_EQ(da.size(), 4u);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].source, db[i].source);
    EXPECT_EQ(da[i].target, db[i].target);
    EXPECT_EQ(da[i].amount, db[i].amount);
  }
  // A different seed reshuffles the admissible pairs.
  util::Rng c(2025);
  const auto dc = scenario::far_apart_demands(g, 4, 10.0, c);
  bool any_different = false;
  for (std::size_t i = 0; i < dc.size(); ++i) {
    any_different |= dc[i].source != da[i].source ||
                     dc[i].target != da[i].target;
  }
  EXPECT_TRUE(any_different);
}

/// far_apart_demands and the list-and-shuffle referee give the same
/// demands (or the same exception) and leave their RNGs in the same state.
void expect_placement_matches_referee(const graph::Graph& g,
                                      std::size_t pairs, double factor,
                                      std::uint64_t seed) {
  SCOPED_TRACE("nodes " + std::to_string(g.num_nodes()) + " pairs " +
               std::to_string(pairs) + " factor " + std::to_string(factor) +
               " seed " + std::to_string(seed));
  util::Rng rng(seed);
  util::Rng referee_rng(seed);
  std::vector<mcf::Demand> demands;
  std::vector<mcf::Demand> expected;
  std::string error;
  std::string expected_error;
  try {
    demands = scenario::far_apart_demands(g, pairs, 10.0, rng, factor);
  } catch (const std::exception& e) {
    error = e.what();
  }
  try {
    expected = scenario::listed_far_apart_demands(g, pairs, 10.0,
                                                  referee_rng, factor);
  } catch (const std::exception& e) {
    expected_error = e.what();
  }
  EXPECT_EQ(error, expected_error);
  ASSERT_EQ(demands.size(), expected.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(demands[i].source, expected[i].source) << "demand " << i;
    EXPECT_EQ(demands[i].target, expected[i].target) << "demand " << i;
    EXPECT_EQ(demands[i].amount, expected[i].amount) << "demand " << i;
  }
  EXPECT_EQ(rng.next(), referee_rng.next());
}

constexpr double kFactors[] = {0.0, 0.5, 0.8, 1.0};

// The shuffle window relies on libstdc++'s std::shuffle being a forward
// Fisher-Yates; these tests are the guard that it still is.
TEST(ScenarioPlacement, FarApartDemandsMatchListReferee) {
  util::Rng draw(31);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(draw.uniform_int(lo, hi));
  };
  for (double factor : kFactors) {
    for (int round = 0; round < 2; ++round) {
      topology::ErdosRenyiOptions er;
      er.nodes = pick(20, 120);
      er.edge_probability = draw.uniform(0.03, 0.3);
      topology::BarabasiAlbertOptions ba;
      ba.nodes = pick(50, 600);
      ba.attach = pick(1, 3);
      const graph::Graph graphs[] = {
          topology::make_topology({er, draw.next()}),
          topology::make_topology({ba, draw.next()}),
          topology::make_topology(
              {topology::CaidaLikeOptions{}, draw.next()}),
          topology::make_topology({topology::BellCanadaOptions{}}),
      };
      for (const graph::Graph& g : graphs) {
        expect_placement_matches_referee(g, pick(1, 12), factor,
                                         draw.next());
      }
    }
  }
}

TEST(ScenarioPlacement, ScanPastTheWindowReplaysTheWholeShuffle) {
  // A star of 1500 leaves with a three-hop tail: at factor 1 every
  // admissible pair joins a leaf to the tail's end, so the first pass takes
  // one pair and then reads all 1500 slots, past the 1024 of the window.
  graph::Builder builder;
  builder.add_nodes(1504);
  for (graph::NodeId leaf = 1; leaf <= 1500; ++leaf) {
    builder.add_edge(0, leaf, 1.0);
  }
  builder.add_edge(0, 1501, 1.0);
  builder.add_edge(1501, 1502, 1.0);
  builder.add_edge(1502, 1503, 1.0);
  const graph::Graph lollipop = builder.finalize();
  ASSERT_EQ(scenario::listed_admissible_pairs(lollipop, 1.0).size(), 1500u);
  for (std::size_t pairs : {2, 3}) {
    expect_placement_matches_referee(lollipop, pairs, 1.0, 7);
  }
  // More pairs than fresh endpoints allow, or than admissible pairs
  // exist: every slot is stored from the start.
  const graph::Graph caida =
      topology::make_topology({topology::CaidaLikeOptions{}, 1});
  for (double factor : {0.0, 0.5}) {
    expect_placement_matches_referee(caida, caida.num_nodes() / 2 + 1,
                                     factor, 7);
  }
  const graph::Graph bell =
      topology::make_topology({topology::BellCanadaOptions{}});
  for (double factor : kFactors) {
    const std::size_t admissible =
        scenario::listed_admissible_pairs(bell, factor).size();
    expect_placement_matches_referee(bell, admissible + 3, factor, 11);
  }
}

TEST(ScenarioPlacement, TinyGraphsMatchListReferee) {
  // Paths, stars and brooms (a path with a second leaf on node 1) of up to
  // six nodes give 0-15 admissible pairs; libstdc++'s shuffle takes a
  // different first step for odd and even lengths.
  enum class Shape { kPath, kStar, kBroom };
  std::set<std::size_t> sizes;
  for (std::size_t nodes = 1; nodes <= 6; ++nodes) {
    for (Shape shape : {Shape::kPath, Shape::kStar, Shape::kBroom}) {
      graph::Builder builder;
      builder.add_nodes(nodes);
      for (std::size_t v = 1; v < nodes; ++v) {
        std::size_t parent = v - 1;
        if (shape == Shape::kStar) parent = 0;
        if (shape == Shape::kBroom && nodes >= 3 && v + 1 == nodes) {
          parent = 1;
        }
        builder.add_edge(static_cast<graph::NodeId>(parent),
                         static_cast<graph::NodeId>(v), 1.0);
      }
      const graph::Graph g = builder.finalize();
      for (double factor : {0.0, 0.5, 0.8, 1.0, 2.0}) {
        sizes.insert(scenario::listed_admissible_pairs(g, factor).size());
        for (std::size_t pairs : {0, 1, 2, 5}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            expect_placement_matches_referee(g, pairs, factor, seed);
          }
        }
      }
    }
  }
  for (std::size_t size : {0, 1, 2, 3}) EXPECT_EQ(sizes.count(size), 1u);
}

scenario::SweepResult small_sweep(std::size_t threads) {
  scenario::RunnerOptions options;
  options.runs = 2;
  options.seed = 7;
  options.threads = threads;
  scenario::SweepRunner sweep("unit", "pairs", options);
  sweep.add_algorithm("SRT",
                      [](const core::RecoveryProblem& p,
                         scenario::RunContext&) {
                        return heuristics::solve_srt(p);
                      });
  sweep.add_point("2", bell_factory(2, 5.0));
  sweep.add_point("3", bell_factory(3, 5.0));
  return sweep.run();
}

TEST(SweepRunner, CollectsEveryPointInOrder) {
  const auto result = small_sweep(1);
  EXPECT_EQ(result.name, "unit");
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.x_values, (std::vector<std::string>{"2", "3"}));
  EXPECT_EQ(result.algorithm_names, (std::vector<std::string>{"SRT"}));
  for (const auto& point : result.points) {
    EXPECT_EQ(point.completed_runs, 2u);
  }
  EXPECT_GT(result.mean(0, "SRT", "total_repairs"), 0.0);
  EXPECT_GT(result.instance_mean(1, "broken_total"), 0.0);
}

TEST(SweepRunner, ResultsAreThreadCountInvariant) {
  const auto serial = small_sweep(1);
  const auto parallel = small_sweep(8);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    expect_identical(serial.points[i], parallel.points[i]);
  }
}

TEST(SweepRunner, CsvRoundTripMatchesTableValues) {
  const auto result = small_sweep(1);
  const std::string path = ::testing::TempDir() + "netrec_sweep.csv";
  const scenario::SeriesSpec spec{.metric = "total_repairs", .precision = 3};
  result.write_csv(path, spec);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    rows.push_back(cells);
  }
  std::remove(path.c_str());

  ASSERT_EQ(rows.size(), 3u);  // header + 2 points
  EXPECT_EQ(rows[0], (std::vector<std::string>{"pairs", "SRT"}));
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(rows[i + 1][0], result.x_values[i]);
    EXPECT_DOUBLE_EQ(std::stod(rows[i + 1][1]),
                     std::stod(util::format_double(
                         result.mean(i, "SRT", "total_repairs"), 3)));
  }
}

TEST(SweepRunner, JsonRoundTripPreservesTheFullResult) {
  const auto result = small_sweep(1);
  const std::string path = ::testing::TempDir() + "netrec_sweep.json";
  result.write_json(path);
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  const util::Json loaded = util::Json::parse(text.str());
  std::remove(path.c_str());

  EXPECT_TRUE(loaded == result.to_json());
  EXPECT_EQ(loaded.at("sweep").as_string(), "unit");
  EXPECT_EQ(loaded.at("points").size(), 2u);
  const auto& point = loaded.at("points").at(0);
  EXPECT_EQ(point.at("pairs").as_string(), "2");
  EXPECT_EQ(point.at("completed_runs").as_number(), 2.0);
  const auto& srt = point.at("metrics").at("SRT");
  EXPECT_EQ(srt.at("total_repairs").at("mean").as_number(),
            result.mean(0, "SRT", "total_repairs"));
  EXPECT_EQ(srt.at("total_repairs").at("count").as_number(), 2.0);
  EXPECT_TRUE(point.at("instance").contains("broken_total"));
}

}  // namespace
}  // namespace netrec
