// Streaming statistics used to aggregate experiment runs.
//
// Experiments in the paper average 20 runs per data point; RunningStats
// accumulates those samples with Welford's algorithm (numerically stable,
// single pass) and exposes mean / stddev / standard error / extrema.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace netrec::util {

/// Single-variable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean: stddev / sqrt(n).
  double stderr_mean() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// --- restoration time series -----------------------------------------------
//
// Shared by heuristics::RecoverySchedule (restored demand per repair step)
// and recovery::Timeline (routed demand per stage): both measure how fast a
// repair process brings service back, with unit-time steps (the objective of
// Wang, Qiao & Yu, INFOCOM 2011).

/// Area under the restoration curve, normalised to [0, 1]: the mean of
/// restored[i] / total over the series.  1 means everything was restored
/// instantly.  An empty series or non-positive total scores 0 — degenerate
/// input must not read as "fully restored" (it would mask a failed solve);
/// callers that know an empty series means "already healthy" pad the series
/// before scoring (TimelineResult::restoration_auc).
double restoration_auc(const std::vector<double>& restored, double total);

/// Steps until `fraction` of `total` is restored: 1-based index of the
/// first entry reaching fraction * total (within 1e-9 slack);
/// restored.size() + 1 when the series never gets there.
std::size_t steps_to_fraction(const std::vector<double>& restored,
                              double total, double fraction);

/// A named collection of RunningStats, keyed by metric name.  Each bench
/// data point (e.g. "x=4 pairs") keeps one MetricSet across runs.
class MetricSet {
 public:
  void add(const std::string& metric, double value);
  const RunningStats& get(const std::string& metric) const;
  bool has(const std::string& metric) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, RunningStats> metrics_;
};

}  // namespace netrec::util
