// Monotonic wall-clock timing for the execution-time experiments (Fig. 7a).
#pragma once

#include <chrono>

namespace netrec::util {

/// Starts on construction; elapsed_seconds() may be read repeatedly.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Simple deadline helper for solver time limits.
class Deadline {
 public:
  /// A non-positive budget means "no limit".
  explicit Deadline(double budget_seconds)
      : enabled_(budget_seconds > 0.0), budget_(budget_seconds) {}

  bool expired() const {
    return enabled_ && timer_.elapsed_seconds() >= budget_;
  }

 private:
  bool enabled_;
  double budget_;
  Timer timer_;
};

}  // namespace netrec::util
