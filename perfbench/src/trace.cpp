#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

namespace {

// The innermost open span on this thread (parent of the next one opened).
thread_local long tl_parent = -1;
thread_local std::string tl_request;

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long Tracer::open(std::string name, long parent, std::string request,
                  double start) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      SpanRecord{std::move(name), start, start, parent, std::move(request)});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::close(long index, double end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span::Span(Tracer* tracer, std::string name, std::string request)
    : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
      saved_parent_(tl_parent),
      saved_request_(tl_request) {
  if (request.empty()) request = tl_request;
  start_ = now_seconds();
  if (tracer_) {
    index_ = tracer_->open(std::move(name), tl_parent, request, start_);
    tl_parent = index_;
    tl_request = std::move(request);
  }
}

Span::~Span() { stop(); }

double Span::stop() {
  const double end = now_seconds();
  if (!open_) return 0.0;
  open_ = false;
  if (tracer_) {
    tracer_->close(index_, end);
    tl_parent = saved_parent_;
    tl_request = std::move(saved_request_);
  }
  return end - start_;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> covered;
    for (std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start, span.start);
      const double hi = std::min(spans[c].end, span.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      union_length += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = (span.end - span.start) - union_length;
  }
  return self;
}

std::map<std::string, std::vector<double>> durations_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& span : spans) {
    out[span.name].push_back(span.end - span.start);
  }
  return out;
}

}  // namespace perfbench
