// Shared plumbing for the figure-reproduction bench drivers.
//
// Every paper-figure driver declares a scenario::SweepRunner over one x-axis
// (demand pairs, demand intensity, disruption variance, edge probability),
// runs a set of algorithms over `--runs` seeded instances per point on
// `--threads` workers (fig_recovery runs policy x dynamics cells instead),
// prints paper-style tables to stdout and optionally mirrors them to CSV
// (--csv <prefix>) and JSON (--json <path>).  Absolute numbers depend on the
// machine and on the synthetic topology substitutions documented in the
// driver headers; the *shape* of each series is what reproduces the paper's
// figures.
//
// Flags common to all drivers:
//   --runs N       instances averaged per data point (paper: 20)
//   --seed S       master RNG seed; a fixed seed gives bit-identical tables
//                  and CSVs at any --threads value (wall_seconds excepted:
//                  it measures real solver time)
//   --threads T    worker threads for the runs x cells matrix; 0 (the
//                  default) resolves NETREC_THREADS, then hardware
//                  concurrency
//   --csv PREFIX   write each series as PREFIX<suffix>.csv
//   --json PATH    write the full sweep (all metrics + spread) as JSON
//   --verbose      log solver diagnostics to stderr
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/isp.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/opt.hpp"
#include "scenario/sweep.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace netrec::bench {

/// Declares the flags shared by all figure drivers.
inline void declare_common_flags(util::Flags& flags, int default_runs) {
  flags.define("runs", std::to_string(default_runs),
               "instances averaged per data point (paper: 20)");
  flags.define("seed", "42", "master RNG seed");
  flags.define("threads", "0",
               "worker threads (0 = NETREC_THREADS or hardware concurrency)");
  flags.define("csv", "", "also write each series to <csv><suffix>.csv");
  flags.define("json", "", "also write the full sweep as JSON to this path");
  flags.define("verbose", "false", "log solver diagnostics to stderr");
}

/// Parses flags; returns false (after printing usage) on --help or error.
inline bool parse_or_usage(util::Flags& flags, int argc, char** argv) {
  try {
    if (!flags.parse(argc, argv)) {
      std::fputs(flags.usage(argv[0]).c_str(), stdout);
      return false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.usage(argv[0]).c_str());
    return false;
  }
  if (flags.get_bool("verbose")) {
    util::set_log_level(util::LogLevel::kInfo);
  } else {
    util::set_log_level(util::LogLevel::kError);
  }
  return true;
}

/// Builds RunnerOptions from the common flags (runs, seed, threads).
inline scenario::RunnerOptions runner_options(const util::Flags& flags) {
  scenario::RunnerOptions options;
  options.runs = static_cast<std::size_t>(flags.get_int("runs"));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.threads = static_cast<std::size_t>(flags.get_int("threads"));
  return options;
}

/// Wraps a driver body so exceptions (bad numeric flag values, unwritable
/// output paths, disconnected topologies) become a clean error line and
/// exit code 1 instead of std::terminate.
inline int main_guard(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// One printed/emitted output series of a sweep.
struct SeriesOutput {
  std::string title;          ///< e.g. "Fig 4(a): edge repairs"
  scenario::SeriesSpec spec;  ///< metric + precision + instance extras
  std::string csv_suffix;     ///< e.g. ".edges.csv"
};

/// Opens (truncates) every --csv/--json destination up front, so a bad path
/// fails in milliseconds rather than after the whole sweep has run; emit()
/// rewrites the files with real content.
inline void preflight(const util::Flags& flags,
                      const std::vector<SeriesOutput>& series) {
  const std::string csv = flags.get("csv");
  if (!csv.empty()) {
    for (const auto& output : series) {
      util::CsvWriter probe(csv + output.csv_suffix);
    }
  }
  const std::string json = flags.get("json");
  if (!json.empty()) util::write_json_file(json, util::Json::object());
}

/// Prints every series as an aligned table and mirrors them to CSV/JSON when
/// --csv/--json were given.
inline void emit(const scenario::SweepResult& result,
                 const std::vector<SeriesOutput>& series,
                 const util::Flags& flags) {
  const std::string csv = flags.get("csv");
  const std::string json = flags.get("json");
  for (const auto& output : series) {
    if (!csv.empty()) result.write_csv(csv + output.csv_suffix, output.spec);
    std::printf("\n== %s ==\n", output.title.c_str());
    result.table(output.spec).print();
  }
  if (!json.empty()) result.write_json(json);
  std::fflush(stdout);
}

/// Registers the paper's full algorithm roster (Fig. 4-6 settings): ISP,
/// OPT (MILP with the given budget), SRT, GRD-COM, GRD-NC and the ALL
/// yardstick.
inline void add_paper_algorithms(scenario::SweepRunner& sweep,
                                 double opt_seconds,
                                 const heuristics::GreedyOptions& gopt) {
  sweep.add_algorithm(
      "ISP", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return core::IspSolver(p).solve();
      });
  sweep.add_algorithm(
      "OPT",
      [opt_seconds](const core::RecoveryProblem& p, scenario::RunContext&) {
        heuristics::OptOptions oo;
        oo.time_limit_seconds = opt_seconds;
        return heuristics::solve_opt(p, oo).solution;
      });
  sweep.add_algorithm(
      "SRT", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_srt(p);
      });
  sweep.add_algorithm(
      "GRD-COM",
      [gopt](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_grd_com(p, gopt);
      });
  sweep.add_algorithm(
      "GRD-NC", [gopt](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_grd_nc(p, gopt);
      });
  sweep.add_algorithm(
      "ALL", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_all(p);
      });
}

}  // namespace netrec::bench
