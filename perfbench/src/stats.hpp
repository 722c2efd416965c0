// Summary statistics for the benchmark's latency samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-percentile among n samples:
/// ceil(q * n), clamped to [1, n].
std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank percentile (the definition serve::MetricsRegistry uses);
/// 0 when empty.  Works in place: `samples` is reordered, never copied, so
/// hundreds of thousands of latencies cost no extra memory.
template <typename T>
double percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                         nearest_rank(samples.size(), q) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

template <typename T>
double median(std::vector<T>& samples) {
  return percentile(samples, 0.5);
}

double mean(const std::vector<double>& samples);

/// Samples strictly above the nearest-rank q-percentile: the support a
/// reported tail percentile has.
std::size_t samples_beyond(std::size_t n, double q);

}  // namespace perfbench
