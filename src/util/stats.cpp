#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace netrec::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double restoration_auc(const std::vector<double>& restored, double total) {
  // Degenerate input — no measurements, or nothing to restore — must not
  // score as "fully restored": a failed solve that produced no series would
  // otherwise report a perfect recovery (user-facing once netrecd serves
  // these numbers).  Callers that know an empty series means "already
  // healthy" pad the series first (TimelineResult::restoration_auc).
  if (restored.empty() || total <= 0.0) return 0.0;
  double area = 0.0;
  for (double x : restored) area += x / total;
  return area / static_cast<double>(restored.size());
}

std::size_t steps_to_fraction(const std::vector<double>& restored,
                              double total, double fraction) {
  const double target = fraction * total - 1e-9;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    if (restored[i] >= target) return i + 1;
  }
  return restored.size() + 1;
}

void MetricSet::add(const std::string& metric, double value) {
  metrics_[metric].add(value);
}

const RunningStats& MetricSet::get(const std::string& metric) const {
  auto it = metrics_.find(metric);
  if (it == metrics_.end()) {
    throw std::out_of_range("MetricSet: unknown metric '" + metric + "'");
  }
  return it->second;
}

bool MetricSet::has(const std::string& metric) const {
  return metrics_.count(metric) > 0;
}

std::vector<std::string> MetricSet::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, stats] : metrics_) out.push_back(name);
  return out;
}

}  // namespace netrec::util
