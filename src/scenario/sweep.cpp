#include "scenario/sweep.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "util/csv.hpp"

namespace netrec::scenario {

namespace {

// Weyl-style per-point seed stride; any odd 64-bit constant works because
// Rng re-scrambles the seed through SplitMix64.
constexpr std::uint64_t kPointSalt = 0xbf58476d1ce4e5b9ULL;

std::vector<std::string> series_header(const SweepResult& result,
                                       const SeriesSpec& spec) {
  std::vector<std::string> header{result.x_label};
  header.insert(header.end(), result.algorithm_names.begin(),
                result.algorithm_names.end());
  header.insert(header.end(), spec.instance_metrics.begin(),
                spec.instance_metrics.end());
  return header;
}

std::vector<std::string> series_row(const SweepResult& result,
                                    const SeriesSpec& spec,
                                    std::size_t index) {
  std::vector<std::string> row{result.x_values[index]};
  for (const auto& algorithm : result.algorithm_names) {
    row.push_back(util::format_double(
        result.mean(index, algorithm, spec.metric), spec.precision));
  }
  for (const auto& metric : spec.instance_metrics) {
    row.push_back(util::format_double(result.instance_mean(index, metric),
                                      spec.precision));
  }
  return row;
}

util::Json stats_json(const util::RunningStats& stats) {
  util::Json out = util::Json::object();
  out.set("mean", stats.mean());
  out.set("stddev", stats.stddev());
  out.set("stderr", stats.stderr_mean());
  out.set("min", stats.min());
  out.set("max", stats.max());
  out.set("count", stats.count());
  return out;
}

util::Json metric_set_json(const util::MetricSet& metrics) {
  util::Json out = util::Json::object();
  for (const auto& name : metrics.names()) {
    out.set(name, stats_json(metrics.get(name)));
  }
  return out;
}

}  // namespace

double SweepResult::mean(std::size_t index, const std::string& algorithm,
                         const std::string& metric) const {
  const auto& point = points.at(index);
  const auto it = point.per_cell.find(algorithm);
  if (it == point.per_cell.end()) {
    // Every run of the point failed its feasibility redraws: no data, which
    // is visible via completed_runs == 0.  Anything else is a typo.
    if (point.completed_runs == 0) return 0.0;
    throw std::out_of_range("SweepResult: unknown algorithm '" + algorithm +
                            "'");
  }
  if (!it->second.has(metric)) {
    throw std::out_of_range("SweepResult: algorithm '" + algorithm +
                            "' has no metric '" + metric + "'");
  }
  return it->second.get(metric).mean();
}

double SweepResult::instance_mean(std::size_t index,
                                  const std::string& metric) const {
  const auto& point = points.at(index);
  if (!point.instance.has(metric)) {
    if (point.completed_runs == 0) return 0.0;
    throw std::out_of_range("SweepResult: unknown instance metric '" + metric +
                            "'");
  }
  return point.instance.get(metric).mean();
}

util::Table SweepResult::table(const SeriesSpec& spec) const {
  util::Table out(series_header(*this, spec));
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.add_row(series_row(*this, spec, i));
  }
  return out;
}

void SweepResult::write_csv(const std::string& path,
                            const SeriesSpec& spec) const {
  util::CsvWriter csv(path);
  csv.header(series_header(*this, spec));
  for (std::size_t i = 0; i < points.size(); ++i) {
    csv.row(series_row(*this, spec, i));
  }
}

util::Json SweepResult::to_json() const {
  util::Json out = util::Json::object();
  out.set("sweep", name);
  out.set("x_label", x_label);
  out.set("seed", static_cast<double>(seed));
  util::Json algorithms = util::Json::array();
  for (const auto& algorithm : algorithm_names) algorithms.push_back(algorithm);
  out.set("algorithms", algorithms);
  util::Json point_array = util::Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    util::Json point = util::Json::object();
    point.set(x_label, x_values[i]);
    point.set("completed_runs", points[i].completed_runs);
    util::Json per_algorithm = util::Json::object();
    for (const auto& algorithm : algorithm_names) {
      const auto it = points[i].per_cell.find(algorithm);
      per_algorithm.set(algorithm, it == points[i].per_cell.end()
                                       ? util::Json::object()
                                       : metric_set_json(it->second));
    }
    point.set("metrics", per_algorithm);
    point.set("instance", metric_set_json(points[i].instance));
    point_array.push_back(point);
  }
  out.set("points", point_array);
  return out;
}

void SweepResult::write_json(const std::string& path) const {
  util::write_json_file(path, to_json());
}

SweepRunner::SweepRunner(std::string name, std::string x_label,
                         RunnerOptions options)
    : name_(std::move(name)),
      x_label_(std::move(x_label)),
      options_(std::move(options)) {}

void SweepRunner::add_algorithm(std::string algorithm_name,
                                Algorithm algorithm) {
  algorithms_.emplace_back(std::move(algorithm_name), std::move(algorithm));
}

void SweepRunner::add_point(std::string label, ProblemFactory factory) {
  points_.emplace_back(std::move(label), std::move(factory));
}

SweepResult SweepRunner::run() {
  SweepResult result;
  result.name = name_;
  result.x_label = x_label_;
  result.seed = options_.seed;
  for (const auto& [algorithm_name, algorithm] : algorithms_) {
    result.algorithm_names.push_back(algorithm_name);
  }

  // One pool serves every point unless the caller supplied one.
  std::optional<util::ThreadPool> owned_pool;
  RunnerOptions point_options = options_;
  point_options.pool = util::ThreadPool::acquire(
      owned_pool, point_options.threads, point_options.pool);

  for (std::size_t i = 0; i < points_.size(); ++i) {
    point_options.seed = options_.seed + kPointSalt * (i + 1);
    const auto aggregate =
        run_experiment(points_[i].second, algorithms_, point_options);
    std::printf("[%s] %s=%s done (%zu runs)\n", name_.c_str(),
                x_label_.c_str(), points_[i].first.c_str(),
                aggregate.completed_runs);
    std::fflush(stdout);
    result.x_values.push_back(points_[i].first);
    result.points.push_back(aggregate);
  }
  return result;
}

}  // namespace netrec::scenario
