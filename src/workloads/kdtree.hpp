#pragma once
// kd-tree over a PointSet, supporting the HOP workload's
// partially-parallel construction: the top of the tree is built serially
// (each level depends on the previous split), after which independent
// subtree tasks are built in parallel.  This dependence is exactly why
// the paper observes that "the parallel tree construction kernel does not
// scale up to 16 cores" for HOP.
//
// All build and query routines are Executor templates
// (runtime/executor.hpp) and annotate their dynamic loads/stores/compute,
// so the same code is timed natively and on the simulator.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "workloads/dataset.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// One kNN result entry (squared distance + point index).
struct Neighbor {
  double dist2 = 0.0;
  std::uint32_t index = 0;
};

/// Median-split kd-tree with axis cycling and leaf buckets.
class KdTree {
 public:
  /// Tree node: internal nodes carry a split plane, leaves a range of
  /// `order()` indices.
  struct Node {
    double split = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::int8_t axis = -1;  ///< -1 marks a leaf

    bool is_leaf() const noexcept { return axis < 0; }
  };

  /// An independent subtree construction task produced by build_top():
  /// build the points order()[begin, end) into node slot `slot`, using
  /// node indices [arena_begin, arena_end) for descendants.
  struct SubtreeTask {
    std::uint32_t slot = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t arena_begin = 0;
    std::uint32_t arena_end = 0;
    int depth = 0;
  };

  /// Prepares an (unbuilt) tree over `points`; `leaf_size` >= 1.
  KdTree(const PointSet& points, int leaf_size);

  /// Allocates the node array for build_top(ex, min_tasks), which calls
  /// it itself; call it earlier to fix where the nodes live.
  void allocate_nodes(int min_tasks) {
    nodes_.resize(node_bound(static_cast<std::uint32_t>(order_.size())) +
                  16 * static_cast<std::uint32_t>(min_tasks) + 64);
  }

  /// Serial top-phase: splits the root until at least `min_tasks`
  /// frontier subtrees exist (or everything became leaves) and returns
  /// the frontier as independent tasks.  Must be called exactly once.
  template <Executor E>
  std::vector<SubtreeTask> build_top(E& ex, int min_tasks);

  /// Builds one frontier subtree.  Distinct tasks touch disjoint node and
  /// order ranges, so they may run on different threads concurrently.
  template <Executor E>
  void build_subtree(E& ex, const SubtreeTask& task);

  /// Convenience for tests/examples: full build on the calling thread.
  template <Executor E>
  void build_all(E& ex) {
    for (const SubtreeTask& task : build_top(ex, 1)) build_subtree(ex, task);
  }

  /// k nearest neighbors of point `query` (excluding itself), sorted by
  /// ascending distance.  The tree must be fully built.
  template <Executor E>
  void knn(E& ex, std::uint32_t query, int k,
           std::vector<Neighbor>& result) const;

  const PointSet& points() const noexcept { return *points_; }
  /// Point-index permutation; leaves reference ranges of this array.
  const std::vector<std::uint32_t>& order() const noexcept { return order_; }
  const Node& node(std::size_t i) const { return nodes_.at(i); }
  /// The node array (empty until allocate_nodes() or build_top()).
  std::span<const Node> nodes() const noexcept { return nodes_; }
  /// Root node index (0) — valid once build_top() has run.
  std::size_t root() const noexcept { return 0; }
  bool build_started() const noexcept { return top_bump_ > 0; }

 private:
  /// Upper bound on nodes needed for a median-split subtree over `count`
  /// points with this leaf size.
  std::uint32_t node_bound(std::uint32_t count) const noexcept {
    const std::uint32_t leaves =
        (count + static_cast<std::uint32_t>(leaf_size_) - 1) /
        static_cast<std::uint32_t>(leaf_size_);
    return 4 * leaves + 8;
  }

  double coord(std::uint32_t point_index, int axis) const noexcept {
    return points_->row(point_index)[static_cast<std::size_t>(axis)];
  }

  template <Executor E>
  void select_median(E& ex, std::uint32_t begin, std::uint32_t end,
                     std::uint32_t mid, int axis);

  template <Executor E>
  void build_recursive(E& ex, std::uint32_t slot, std::uint32_t begin,
                       std::uint32_t end, int depth, std::uint32_t& bump,
                       std::uint32_t arena_end);

  template <Executor E>
  void knn_recursive(E& ex, std::uint32_t node_index,
                     const double* query_coords, std::uint32_t query, int k,
                     std::vector<Neighbor>& heap) const;

  const PointSet* points_;
  int leaf_size_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> order_;
  std::uint32_t top_bump_ = 0;  ///< nodes allocated by the serial top phase
};

// ---------------------------------------------------------------------------
// Template implementations
// ---------------------------------------------------------------------------

template <Executor E>
void KdTree::select_median(E& ex, std::uint32_t begin, std::uint32_t end,
                           std::uint32_t mid, int axis) {
  // Hoare quickselect with median-of-three pivots over order_[begin, end).
  std::int64_t lo = begin;
  std::int64_t hi = static_cast<std::int64_t>(end) - 1;
  const std::int64_t target = mid;
  while (lo < hi) {
    // Median-of-three pivot value.
    const double a = coord(order_[static_cast<std::size_t>(lo)], axis);
    const double b =
        coord(order_[static_cast<std::size_t>((lo + hi) / 2)], axis);
    const double c = coord(order_[static_cast<std::size_t>(hi)], axis);
    ex.compute(3);
    double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));

    std::int64_t i = lo - 1;
    std::int64_t j = hi + 1;
    for (;;) {
      do {
        ++i;
        ex.load(&order_[static_cast<std::size_t>(i)]);
        ex.compute(1);
      } while (coord(order_[static_cast<std::size_t>(i)], axis) < pivot);
      do {
        --j;
        ex.load(&order_[static_cast<std::size_t>(j)]);
        ex.compute(1);
      } while (coord(order_[static_cast<std::size_t>(j)], axis) > pivot);
      if (i >= j) break;
      std::swap(order_[static_cast<std::size_t>(i)],
                order_[static_cast<std::size_t>(j)]);
      ex.store(&order_[static_cast<std::size_t>(i)]);
      ex.store(&order_[static_cast<std::size_t>(j)]);
    }
    if (target <= j) {
      hi = j;
    } else {
      lo = j + 1;
    }
  }
}

template <Executor E>
void KdTree::build_recursive(E& ex, std::uint32_t slot, std::uint32_t begin,
                             std::uint32_t end, int depth, std::uint32_t& bump,
                             std::uint32_t arena_end) {
  Node& node = nodes_[slot];
  node.begin = begin;
  node.end = end;
  if (end - begin <= static_cast<std::uint32_t>(leaf_size_)) {
    node.axis = -1;
    node.left = node.right = -1;
    ex.store(&node);
    return;
  }
  const int axis = depth % points_->dims();
  const std::uint32_t mid = begin + (end - begin) / 2;
  select_median(ex, begin, end, mid, axis);
  node.axis = static_cast<std::int8_t>(axis);
  node.split = coord(order_[mid], axis);
  MS_CHECK(bump + 2 <= arena_end, "kd-tree arena exhausted");
  node.left = static_cast<std::int32_t>(bump++);
  node.right = static_cast<std::int32_t>(bump++);
  ex.store(&node);
  build_recursive(ex, static_cast<std::uint32_t>(node.left), begin, mid,
                  depth + 1, bump, arena_end);
  build_recursive(ex, static_cast<std::uint32_t>(node.right), mid, end,
                  depth + 1, bump, arena_end);
}

template <Executor E>
std::vector<KdTree::SubtreeTask> KdTree::build_top(E& ex, int min_tasks) {
  MS_CHECK(min_tasks >= 1, "need at least one task");
  MS_CHECK(top_bump_ == 0, "build_top may only be called once");

  struct Pending {
    std::uint32_t slot, begin, end;
    int depth;
  };
  allocate_nodes(min_tasks);
  std::vector<Pending> pending;
  pending.push_back({0, 0, static_cast<std::uint32_t>(order_.size()), 0});
  top_bump_ = 1;

  // Repeatedly split the largest pending range until the frontier is wide
  // enough.  Ranges at or below the leaf size stay pending: their task
  // degenerates to emitting a single leaf.
  while (pending.size() < static_cast<std::size_t>(min_tasks)) {
    std::size_t pick = pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].end - pending[i].begin <=
          static_cast<std::uint32_t>(leaf_size_)) {
        continue;
      }
      if (pick == pending.size() ||
          pending[i].end - pending[i].begin >
              pending[pick].end - pending[pick].begin) {
        pick = i;
      }
    }
    if (pick == pending.size()) break;  // nothing splittable remains

    const Pending p = pending[pick];
    pending[pick] = pending.back();
    pending.pop_back();

    const int axis = p.depth % points_->dims();
    const std::uint32_t mid = p.begin + (p.end - p.begin) / 2;
    select_median(ex, p.begin, p.end, mid, axis);
    Node& node = nodes_[p.slot];
    node.begin = p.begin;
    node.end = p.end;
    node.axis = static_cast<std::int8_t>(axis);
    node.split = coord(order_[mid], axis);
    node.left = static_cast<std::int32_t>(top_bump_++);
    node.right = static_cast<std::int32_t>(top_bump_++);
    ex.store(&node);
    pending.push_back(
        {static_cast<std::uint32_t>(node.left), p.begin, mid, p.depth + 1});
    pending.push_back(
        {static_cast<std::uint32_t>(node.right), mid, p.end, p.depth + 1});
  }

  // Carve disjoint node arenas for the frontier subtrees.
  std::vector<SubtreeTask> tasks;
  tasks.reserve(pending.size());
  std::uint32_t arena = top_bump_;
  for (const Pending& p : pending) {
    const std::uint32_t bound = node_bound(p.end - p.begin);
    MS_CHECK(arena + bound <= nodes_.size(), "kd-tree node budget exhausted");
    tasks.push_back({p.slot, p.begin, p.end, arena, arena + bound, p.depth});
    arena += bound;
  }
  return tasks;
}

template <Executor E>
void KdTree::build_subtree(E& ex, const SubtreeTask& task) {
  std::uint32_t bump = task.arena_begin;
  build_recursive(ex, task.slot, task.begin, task.end, task.depth, bump,
                  task.arena_end);
}

template <Executor E>
void KdTree::knn_recursive(E& ex, std::uint32_t node_index,
                           const double* query_coords, std::uint32_t query,
                           int k, std::vector<Neighbor>& heap) const {
  const Node& node = nodes_[node_index];
  ex.load(&node);
  const int dims = points_->dims();
  if (node.is_leaf()) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      const std::uint32_t candidate = order_[i];
      ex.load(&order_[i]);
      if (candidate == query) continue;
      auto row = points_->row(candidate);
      double dist2 = 0.0;
      for (int d = 0; d < dims; ++d) {
        ex.load(&row[static_cast<std::size_t>(d)]);
        const double diff =
            query_coords[d] - row[static_cast<std::size_t>(d)];
        dist2 += diff * diff;
      }
      ex.compute(static_cast<std::uint64_t>(3 * dims));
      auto worse = [](const Neighbor& a, const Neighbor& b) {
        return a.dist2 < b.dist2;
      };
      if (static_cast<int>(heap.size()) < k) {
        heap.push_back({dist2, candidate});
        std::push_heap(heap.begin(), heap.end(), worse);
        ex.compute(4);
      } else if (dist2 < heap.front().dist2) {
        std::pop_heap(heap.begin(), heap.end(), worse);
        heap.back() = {dist2, candidate};
        std::push_heap(heap.begin(), heap.end(), worse);
        ex.compute(8);
      } else {
        ex.compute(1);
      }
    }
    return;
  }

  const double delta = query_coords[node.axis] - node.split;
  ex.compute(2);
  const std::uint32_t near =
      static_cast<std::uint32_t>(delta < 0.0 ? node.left : node.right);
  const std::uint32_t far =
      static_cast<std::uint32_t>(delta < 0.0 ? node.right : node.left);
  knn_recursive(ex, near, query_coords, query, k, heap);
  if (static_cast<int>(heap.size()) < k ||
      delta * delta < heap.front().dist2) {
    ex.compute(2);
    knn_recursive(ex, far, query_coords, query, k, heap);
  }
}

template <Executor E>
void KdTree::knn(E& ex, std::uint32_t query, int k,
                 std::vector<Neighbor>& result) const {
  MS_CHECK(k >= 1, "k must be positive");
  MS_CHECK(build_started(), "tree is not built");
  result.clear();
  const double* query_coords = points_->row(query).data();
  for (int d = 0; d < points_->dims(); ++d) ex.load(&query_coords[d]);
  knn_recursive(ex, static_cast<std::uint32_t>(root()), query_coords, query, k,
                result);
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.dist2 < b.dist2 ||
                     (a.dist2 == b.dist2 && a.index < b.index);
            });
  ex.compute(static_cast<std::uint64_t>(result.size()) * 4);
}

}  // namespace mergescale::workloads
