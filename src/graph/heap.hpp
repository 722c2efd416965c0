// 4-ary min-heap used by the graph kernels.
//
// The Dijkstra-family loops order work by (distance, node) pairs — a total
// order, so every correct min-priority-queue pops the exact same sequence
// and the choice of heap is purely a constant-factor decision.  A 4-ary
// array heap halves the tree depth of the binary std::priority_queue and
// keeps sibling comparisons inside one cache line, which measurably speeds
// up the pop-heavy traversals; the backing vector is reusable across calls
// so steady-state traversals allocate nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace netrec::graph {

template <class Item>
class QuadHeap {
 public:
  void clear() { items_.clear(); }
  bool empty() const { return items_.empty(); }

  void push(Item item) {
    std::size_t i = items_.size();
    items_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(items_[i] < items_[parent])) break;
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  /// Removes and returns the minimum item.  Precondition: !empty().
  Item pop() {
    Item top = items_.front();
    Item last = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) {
      std::size_t i = 0;
      const std::size_t n = items_.size();
      for (;;) {
        const std::size_t first_child = i * 4 + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (items_[c] < items_[best]) best = c;
        }
        if (!(items_[best] < last)) break;
        items_[i] = std::move(items_[best]);
        i = best;
      }
      items_[i] = std::move(last);
    }
    return top;
  }

 private:
  std::vector<Item> items_;
};

}  // namespace netrec::graph
