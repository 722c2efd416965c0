// Sweep orchestration for the figure drivers.
//
// A sweep is a named grid of x-axis points (demand pairs, demand intensity,
// disruption variance, edge probability, ...), each owning a ProblemFactory.
// SweepRunner executes run_experiment per point on one shared thread pool
// and collects the per-point AggregateResults; SweepResult renders any
// metric as a paper-style table, mirrors it to CSV, and serialises the full
// result (every metric, mean/stddev/stderr/min/max/count) as JSON for
// external tooling.  The paper-figure drivers (bench/fig{3,4,5,6,7,9}*.cpp)
// and the ISP ablation are thin declarative wrappers around this type.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace netrec::scenario {

/// One rendered series: a per-algorithm metric, plus optional instance-level
/// metrics appended as extra columns (e.g. Fig. 6's "broken (ALL)" line).
struct SeriesSpec {
  std::string metric;
  int precision = 1;
  std::vector<std::string> instance_metrics;
};

struct SweepResult {
  std::string name;
  std::string x_label;
  std::uint64_t seed = 0;
  std::vector<std::string> x_values;           ///< label per point, in order
  std::vector<std::string> algorithm_names;    ///< column order
  std::vector<AggregateResult> points;         ///< one per x value

  /// Mean of `metric` for `algorithm` at point `index`.  Returns 0 for a
  /// point with no completed runs; throws std::out_of_range for an unknown
  /// algorithm or metric so typos cannot render all-zero tables.
  double mean(std::size_t index, const std::string& algorithm,
              const std::string& metric) const;
  /// Mean of an instance-level metric at point `index`; same error policy.
  double instance_mean(std::size_t index, const std::string& metric) const;

  /// x column + one mean column per algorithm (+ instance extras).
  util::Table table(const SeriesSpec& spec) const;

  /// Same series as the table, written as CSV.
  void write_csv(const std::string& path, const SeriesSpec& spec) const;

  /// Full structured dump: sweep metadata, then per point / per algorithm /
  /// per metric {mean, stddev, stderr, min, max, count} plus instance stats.
  util::Json to_json() const;
  void write_json(const std::string& path) const;
};

class SweepRunner {
 public:
  /// `x_label` names the sweep axis (first table/CSV column).
  SweepRunner(std::string name, std::string x_label, RunnerOptions options);

  /// Algorithms run at every point, in registration order.
  void add_algorithm(std::string algorithm_name, Algorithm algorithm);

  /// Adds one x-axis point; `label` is the printed x value.
  void add_point(std::string label, ProblemFactory factory);

  /// Executes every point (points sequential, the runs x algorithms matrix
  /// of each point parallel on one shared pool).  Per-point master seeds are
  /// derived from options.seed and the point index, so inserting a point
  /// never perturbs the others.  Prints one progress line per point.
  SweepResult run();

 private:
  std::string name_;
  std::string x_label_;
  RunnerOptions options_;
  std::vector<std::pair<std::string, Algorithm>> algorithms_;
  std::vector<std::pair<std::string, ProblemFactory>> points_;
};

}  // namespace netrec::scenario
