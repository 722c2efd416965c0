// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id).  Spans are recorded by
// the benchmark around its calls into netrec's layers, kept in memory, and
// written out once when the run ends.  Parents are tracked per thread: a
// Span opened while another Span of the same tracer is open on that thread
// becomes its child and inherits its request id.  A disabled tracer (or
// none) makes Span a no-op apart from reading the clock.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock).
double now_seconds();

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds, steady clock
  double end = 0.0;
  long parent = -1;    ///< index into Tracer::spans(), -1 for a root
  std::string request; ///< request fingerprint ("" outside requests)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  long open(std::string name, long parent, std::string request, double start);
  void close(long index, double end);

  /// Snapshot of every span recorded so far.
  std::vector<SpanRecord> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread.  `request` defaults to the enclosing
/// span's request id.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string request = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early and returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  long index_ = -1;
  long saved_parent_ = -1;
  std::string saved_request_;
  double start_ = 0.0;
  bool open_ = true;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// Durations in seconds grouped by span name, in recording order.
std::map<std::string, std::vector<double>> durations_by_name(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
