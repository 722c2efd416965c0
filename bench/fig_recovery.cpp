// Recovery-dynamics sweep: repair policy × disaster dynamics, staged.
//
// The paper's figures score one-shot plans; this driver scores *processes*.
// For each scenario family (Erdős–Rényi under a Gaussian regional disaster,
// Bell-Canada under complete destruction) it runs every repair policy
// (replay the one-shot ISP plan, re-plan per stage, betweenness-greedy,
// list-order and random baselines) against every dynamics model (static,
// decaying aftershock sequence, capacity-overload cascade) over --runs
// seeded instances on the deterministic seed-split thread pool, and
// reports restoration AUC (padded to --max-stages so series of different
// lengths share a time axis), final restored percentage, repairs and
// stages-to-90%.  --csv writes the AUC and final-% matrices of each
// family, --json every cell's metrics; like every driver, a fixed seed gives
// byte-identical CSVs at any --threads value.
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "disruption/disruption.hpp"
#include "graph/traversal.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "scenario/timeline_runner.hpp"
#include "topology/generator.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace netrec;

const std::vector<std::string> kAggregateMetrics = {
    "restoration_auc", "final_pct",   "total_repairs", "repair_cost",
    "stages",          "stages_to_90", "shock_breaks"};

std::vector<std::pair<std::string, scenario::PolicyFactory>> make_policies() {
  std::vector<std::pair<std::string, scenario::PolicyFactory>> policies;
  policies.emplace_back("replay", [] {
    return std::make_unique<recovery::ReplayPolicy>();
  });
  policies.emplace_back("replan", [] {
    return std::make_unique<recovery::ReplanPolicy>();
  });
  policies.emplace_back("betweenness", [] {
    return std::make_unique<recovery::BetweennessGreedyPolicy>();
  });
  policies.emplace_back("list", [] {
    return std::make_unique<recovery::ListOrderPolicy>();
  });
  policies.emplace_back("random", [] {
    return std::make_unique<recovery::RandomPolicy>();
  });
  return policies;
}

std::vector<std::pair<std::string, scenario::DynamicsFactory>> make_dynamics(
    const util::Flags& flags) {
  disruption::AftershockOptions aopts;
  aopts.first.variance = flags.get_double("aftershock-variance");
  aopts.decay = flags.get_double("aftershock-decay");
  aopts.max_shocks = static_cast<std::size_t>(flags.get_int("aftershocks"));
  disruption::CascadeOptions copts;
  copts.overload_factor = flags.get_double("overload");

  std::vector<std::pair<std::string, scenario::DynamicsFactory>> dynamics;
  dynamics.emplace_back("static", [] {
    return std::make_unique<recovery::StaticDynamics>();
  });
  dynamics.emplace_back("aftershock", [aopts] {
    return std::make_unique<recovery::AftershockDynamics>(aopts);
  });
  dynamics.emplace_back("cascade", [copts] {
    return std::make_unique<recovery::CascadeDynamics>(copts);
  });
  return dynamics;
}

/// policy-rows × dynamics-columns matrix of one metric's per-cell means;
/// first row is the header.  One builder feeds both the printed table and
/// the CSV the golden_csv test compares, so they cannot desync.
std::vector<std::vector<std::string>> cell_matrix(
    const scenario::AggregateResult& aggregate,
    const std::vector<std::pair<std::string, scenario::PolicyFactory>>&
        policies,
    const std::vector<std::pair<std::string, scenario::DynamicsFactory>>&
        dynamics,
    const std::string& metric, int precision) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"policy"};
  for (const auto& [name, factory] : dynamics) header.push_back(name);
  rows.push_back(std::move(header));
  for (const auto& [policy_name, policy_factory] : policies) {
    std::vector<std::string> row{policy_name};
    for (const auto& [dynamics_name, dynamics_factory] : dynamics) {
      const auto& cell = aggregate.per_cell.at(
          scenario::timeline_cell_name(policy_name, dynamics_name));
      row.push_back(
          util::format_double(cell.get(metric).mean(), precision));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_cell_table(std::vector<std::vector<std::string>> matrix) {
  util::Table table(std::move(matrix.front()));
  for (std::size_t r = 1; r < matrix.size(); ++r) {
    table.add_row(std::move(matrix[r]));
  }
  table.print();
}

void write_cell_csv(const std::string& path,
                    const std::vector<std::vector<std::string>>& matrix) {
  util::CsvWriter csv(path);
  for (const auto& row : matrix) csv.row(row);
}

util::Json aggregate_to_json(const scenario::AggregateResult& aggregate) {
  util::Json cells = util::Json::object();
  for (const std::string& name : aggregate.cell_names) {
    const util::MetricSet& metrics = aggregate.per_cell.at(name);
    util::Json entry = util::Json::object();
    for (const std::string& metric : kAggregateMetrics) {
      util::Json stat = util::Json::object();
      stat.set("mean", metrics.get(metric).mean());
      stat.set("stddev", metrics.get(metric).stddev());
      entry.set(metric, std::move(stat));
    }
    entry.set("wall_seconds", metrics.get("wall_seconds").mean());
    cells.set(name, std::move(entry));
  }
  util::Json out = util::Json::object();
  out.set("completed_runs", aggregate.completed_runs);
  out.set("cells", std::move(cells));
  util::Json instance = util::Json::object();
  for (const std::string& metric :
       {"broken_nodes", "broken_edges", "broken_total", "total_demand"}) {
    instance.set(metric, aggregate.instance.get(metric).mean());
  }
  out.set("instance", std::move(instance));
  return out;
}

int run(int argc, char** argv) {
  util::Flags flags;
  bench::declare_common_flags(flags, /*default_runs=*/6);
  flags.define("budget", "6", "repairs per stage (crew budget)");
  flags.define("max-stages", "32",
               "stage cap; also the AUC padding horizon");
  flags.define("nodes", "100", "Erdos-Renyi node count");
  flags.define("edge-prob", "0.05", "Erdos-Renyi edge probability");
  flags.define("pairs", "4", "demand pairs per instance");
  flags.define("flow", "3", "demand flow per pair");
  flags.define("variance", "40",
               "Gaussian variance of the ER family's initial disaster");
  flags.define("aftershock-variance", "35",
               "variance of the first aftershock");
  flags.define("aftershock-decay", "0.5",
               "aftershock variance decay per stage");
  flags.define("aftershocks", "3", "aftershock count");
  flags.define("overload", "0.3",
               "cascade overload factor (load > factor * capacity breaks)");
  if (!bench::parse_or_usage(flags, argc, argv)) return 0;

  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes"));
  const double edge_prob = flags.get_double("edge-prob");
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs"));
  const double flow = flags.get_double("flow");
  const double variance = flags.get_double("variance");

  scenario::RunnerOptions options = bench::runner_options(flags);
  options.require_feasible = true;
  recovery::TimelineOptions timeline;
  timeline.stage_budget = static_cast<std::size_t>(flags.get_int("budget"));
  timeline.max_stages = static_cast<std::size_t>(flags.get_int("max-stages"));

  const auto policies = make_policies();
  const auto dynamics = make_dynamics(flags);

  const scenario::ProblemFactory er_factory =
      [nodes, edge_prob, pairs, flow, variance](util::Rng& rng) {
        core::RecoveryProblem problem;
        topology::ErdosRenyiOptions eopt;
        eopt.nodes = nodes;
        eopt.edge_probability = edge_prob;
        eopt.capacity = 4.0 * flow;
        std::size_t attempts = 0;
        do {
          problem.graph = topology::make_topology(eopt, rng);
        } while (graph::hop_diameter(
                     graph::GraphView::build(problem.graph)) < 0 &&
                 ++attempts < 50);
        util::Rng demand_rng = rng.fork();
        problem.demands = scenario::far_apart_demands(problem.graph, pairs,
                                                      flow, demand_rng);
        disruption::GaussianDisasterOptions gopt;
        gopt.variance = variance;
        disruption::gaussian_disaster(problem.graph, gopt, rng);
        return problem;
      };
  const scenario::ProblemFactory bell_factory = [pairs, flow](util::Rng& rng) {
    core::RecoveryProblem problem;
    problem.graph = topology::make_topology({topology::BellCanadaOptions{}});
    problem.demands =
        scenario::far_apart_demands(problem.graph, pairs, flow, rng);
    disruption::complete_destruction(problem.graph);
    return problem;
  };

  const std::string csv = flags.get("csv");
  const std::string json_path = flags.get("json");
  // Fail-fast preflight on every output destination.
  const std::vector<std::string> csv_suffixes = {
      ".er.auc.csv", ".er.final.csv", ".bell_canada.auc.csv",
      ".bell_canada.final.csv"};
  if (!csv.empty()) {
    for (const auto& suffix : csv_suffixes) {
      util::CsvWriter probe(csv + suffix);
    }
  }
  if (!json_path.empty()) {
    util::write_json_file(json_path, util::Json::object());
  }

  util::Json families = util::Json::object();
  const std::vector<
      std::pair<std::string, const scenario::ProblemFactory*>>
      family_list = {{"er", &er_factory}, {"bell_canada", &bell_factory}};
  for (const auto& [family, factory] : family_list) {
    util::Timer timer;
    const auto aggregate = scenario::run_timelines(*factory, policies,
                                                   dynamics, timeline, options);
    const double seconds = timer.elapsed_seconds();
    const auto auc_matrix =
        cell_matrix(aggregate, policies, dynamics, "restoration_auc", 6);
    const auto final_matrix =
        cell_matrix(aggregate, policies, dynamics, "final_pct", 6);
    std::printf("\n== fig_recovery: %s — restoration AUC "
                "(policy x dynamics, %zu runs, %.1fs) ==\n",
                family.c_str(), aggregate.completed_runs, seconds);
    print_cell_table(auc_matrix);
    std::printf("\n== fig_recovery: %s — final restored %% ==\n",
                family.c_str());
    print_cell_table(final_matrix);
    if (!csv.empty()) {
      write_cell_csv(csv + "." + family + ".auc.csv", auc_matrix);
      write_cell_csv(csv + "." + family + ".final.csv", final_matrix);
    }
    util::Json entry = aggregate_to_json(aggregate);
    entry.set("wall_seconds", seconds);
    families.set(family, std::move(entry));
  }

  if (!json_path.empty()) {
    util::Json out = util::Json::object();
    out.set("bench", "fig_recovery");
    out.set("seed", static_cast<double>(options.seed));
    out.set("runs", options.runs);
    util::Json config = util::Json::object();
    config.set("nodes", nodes);
    config.set("edge_probability", edge_prob);
    config.set("pairs", pairs);
    config.set("flow", flow);
    config.set("variance", variance);
    config.set("stage_budget", timeline.stage_budget);
    config.set("max_stages", timeline.max_stages);
    config.set("aftershock_variance",
               flags.get_double("aftershock-variance"));
    config.set("aftershock_decay", flags.get_double("aftershock-decay"));
    config.set("aftershocks", flags.get_int("aftershocks"));
    config.set("overload_factor", flags.get_double("overload"));
    out.set("config", std::move(config));
    out.set("families", std::move(families));
    util::write_json_file(json_path, out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return netrec::bench::main_guard(run, argc, argv);
}
