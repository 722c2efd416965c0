#include "graph/traversal.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace netrec::graph {

namespace {
/// Arcs whose residual is at or below this count as drained.
constexpr double kResidualEps = 1e-9;
}  // namespace

ResidualReach::ResidualReach(const GraphView& view,
                             const std::vector<double>& edge_residual)
    : view_(view), residual_(edge_residual), label_(view.num_nodes(), -1) {}

bool ResidualReach::reachable(NodeId source, NodeId target) {
  view_.graph().check_node(source);
  view_.graph().check_node(target);
  if (source == target) return true;
  const int source_label = label_of(source);
  return source_label == label_[static_cast<std::size_t>(target)];
}

int ResidualReach::label_of(NodeId n) {
  int& label = label_[static_cast<std::size_t>(n)];
  if (label != -1) return label;
  label = next_label_++;
  stack_.assign(1, n);
  while (!stack_.empty()) {
    const NodeId at = stack_.back();
    stack_.pop_back();
    const ArcId end = view_.arcs_end(at);
    for (ArcId a = view_.arcs_begin(at); a < end; ++a) {
      if (residual_[static_cast<std::size_t>(view_.arc_edge(a))] <=
          kResidualEps) {
        continue;
      }
      int& next = label_[static_cast<std::size_t>(view_.arc_target(a))];
      if (next != -1) continue;
      next = label;
      stack_.push_back(view_.arc_target(a));
    }
  }
  return label;
}

std::vector<int> connected_components(const GraphView& view) {
  std::vector<int> label(view.num_nodes(), -1);
  int next_label = 0;
  for (std::size_t start = 0; start < view.num_nodes(); ++start) {
    if (label[start] != -1) continue;
    label[start] = next_label;
    std::deque<NodeId> queue{static_cast<NodeId>(start)};
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      const ArcId end = view.arcs_end(at);
      for (ArcId a = view.arcs_begin(at); a < end; ++a) {
        const NodeId to = view.arc_target(a);
        if (label[static_cast<std::size_t>(to)] != -1) continue;
        label[static_cast<std::size_t>(to)] = next_label;
        queue.push_back(to);
      }
    }
    ++next_label;
  }
  return label;
}

std::vector<NodeId> giant_component(const GraphView& view) {
  const auto label = connected_components(view);
  int max_label = -1;
  for (int l : label) max_label = std::max(max_label, l);
  if (max_label < 0) return {};
  std::vector<std::size_t> size(static_cast<std::size_t>(max_label) + 1, 0);
  for (int l : label) ++size[static_cast<std::size_t>(l)];
  const auto best = static_cast<int>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if (label[i] == best) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

namespace {

/// The MS-BFS kernel (see traversal.hpp): one batch of up to 64 sources
/// per run, over frontier/next words reused across batches.
class MultiSourceBfs {
 public:
  struct Batch {
    std::uint64_t sources = 0;  ///< bit k: node 64 * batch + k is a source
    int levels = 0;             ///< largest hop distance found
  };

  explicit MultiSourceBfs(const GraphView& view)
      : view_(view), frontier_(view.num_nodes()), next_(view.num_nodes()) {}

  /// BFS from the nodes 64 * batch ... 64 * batch + 63 (fewer in the last
  /// batch), stopped after `max_hops` levels.  On return seen[v] (V words)
  /// has bit k set iff source 64 * batch + k reaches v within that limit.
  Batch run(std::size_t batch, int max_hops, std::uint64_t* seen) {
    const std::size_t n = view_.num_nodes();
    std::fill_n(seen, n, 0);
    std::fill(frontier_.begin(), frontier_.end(), 0);
    Batch out;
    const std::size_t first = 64 * batch;
    const std::size_t last = std::min(n, first + 64);
    for (std::size_t s = first; s < last; ++s) {
      const std::uint64_t bit = std::uint64_t{1} << (s - first);
      seen[s] = frontier_[s] = bit;
      out.sources |= bit;
    }
    std::uint64_t* const frontier = frontier_.data();
    std::uint64_t* const next = next_.data();
    while (out.levels < max_hops) {
      // Every source in a node's frontier word crosses each of its arcs.
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t f = frontier[v];
        if (f == 0) continue;
        const auto at = static_cast<NodeId>(v);
        const ArcId end = view_.arcs_end(at);
        for (ArcId a = view_.arcs_begin(at); a < end; ++a) {
          next[static_cast<std::size_t>(view_.arc_target(a))] |= f;
        }
      }
      // First arrivals only: they are the next level's frontier.
      std::uint64_t grew = 0;
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t fresh = next[v] & ~seen[v];
        next[v] = 0;
        frontier[v] = fresh;
        seen[v] |= fresh;
        grew |= fresh;
      }
      if (grew == 0) break;
      ++out.levels;
    }
    return out;
  }

 private:
  const GraphView& view_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
};

}  // namespace

int hop_diameter(const GraphView& view) {
  MultiSourceBfs bfs(view);
  std::vector<std::uint64_t> seen(view.num_nodes());
  int diameter = 0;
  for (std::size_t b = 0; 64 * b < view.num_nodes(); ++b) {
    const auto batch =
        bfs.run(b, std::numeric_limits<int>::max(), seen.data());
    for (std::size_t v = 0; v < view.num_nodes(); ++v) {
      if ((seen[v] & batch.sources) != batch.sources) return -1;
    }
    diameter = std::max(diameter, batch.levels);
  }
  return diameter;
}

NearMatrix near_matrix(const GraphView& view, int max_hops) {
  NearMatrix out;
  out.num_nodes_ = view.num_nodes();
  out.words_.assign(out.num_batches() * out.num_nodes_, 0);
  if (max_hops < 0) return out;
  MultiSourceBfs bfs(view);
  for (std::size_t b = 0; b < out.num_batches(); ++b) {
    bfs.run(b, max_hops, out.words_.data() + b * out.num_nodes_);
  }
  return out;
}

}  // namespace netrec::graph
