#pragma once
// Reduction (merging-phase) strategies over privatized partial results.
//
// The paper's Algorithm 1 is the serial strategy: the master walks all
// threads' partial arrays and accumulates them, so merging work grows
// linearly with the thread count.  The alternatives it analyzes are a
// tree (logarithmic critical path) and a privatized parallel reduction
// (constant computational critical path, communication modelled
// separately in §V-E).  Each strategy's per-core work is one
// Executor-annotated kernel here; reduce() runs the kernels on a thread
// team, and the simulator backend (workloads/sim_adapter.hpp) records
// the same kernels core by core.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/thread_team.hpp"
#include "util/check.hpp"

namespace mergescale::runtime {

/// Identifier for the three merging-phase implementations.
enum class ReductionStrategy {
  kSerial,     ///< master accumulates all partials (Algorithm 1); O(t·x)
  kTree,       ///< pairwise combining in log2(t) levels; O(x·log t) path
  kPrivatized, ///< each thread reduces a slice of elements; O(x) path
};

/// Printable strategy name.
constexpr const char* reduction_strategy_name(ReductionStrategy s) noexcept {
  switch (s) {
    case ReductionStrategy::kSerial: return "serial";
    case ReductionStrategy::kTree: return "tree";
    case ReductionStrategy::kPrivatized: return "privatized";
  }
  return "?";
}

/// Per-thread privatized accumulation buffers: `threads` rows of `width`
/// elements, zero-initialized.  Rows are padded to a cache-line multiple
/// to avoid false sharing between threads in the parallel phases.
template <typename T>
class PartialBuffers {
 public:
  PartialBuffers(int threads, std::size_t width)
      : threads_(threads), width_(width), stride_(padded(width)) {
    MS_CHECK(threads >= 1, "need at least one thread");
    MS_CHECK(width >= 1, "need at least one reduction element");
    data_.assign(static_cast<std::size_t>(threads) * stride_, T{});
  }

  int threads() const noexcept { return threads_; }
  std::size_t width() const noexcept { return width_; }

  /// Mutable view of thread `tid`'s partial array.
  std::span<T> partial(int tid) {
    MS_CHECK(tid >= 0 && tid < threads_, "tid out of range");
    return {data_.data() + static_cast<std::size_t>(tid) * stride_, width_};
  }
  /// Read-only view of thread `tid`'s partial array.
  std::span<const T> partial(int tid) const {
    MS_CHECK(tid >= 0 && tid < threads_, "tid out of range");
    return {data_.data() + static_cast<std::size_t>(tid) * stride_, width_};
  }

  /// Zeroes all buffers (start of a new iteration).
  void clear() { std::fill(data_.begin(), data_.end(), T{}); }

 private:
  static std::size_t padded(std::size_t width) {
    constexpr std::size_t line = 64 / sizeof(T) == 0 ? 1 : 64 / sizeof(T);
    return (width + line - 1) / line * line;
  }

  int threads_;
  std::size_t width_;
  std::size_t stride_;
  std::vector<T> data_;
};

/// Accumulates elements [lo, hi) of every thread's partial into `dest`:
/// one core's slice of the privatized merge, whose all-to-all reads are
/// what §V-E's communication model charges for.  Over [0, width) on one
/// core it is the serial merge (paper Algorithm 1).
template <Executor E, typename T>
void merge_slice(E& ex, const PartialBuffers<T>& partials, std::span<T> dest,
                 std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    for (int t = 0; t < partials.threads(); ++t) {
      const T& partial = partials.partial(t)[i];
      ex.load(&partial);
      ex.load(&dest[i]);
      dest[i] += partial;
      ex.store(&dest[i]);
      ex.compute(1);
    }
  }
}

/// Folds `from` into `into` element by element: one core's step of a tree
/// level, and the tree's final combine of partial(0) into the result.
template <Executor E, typename T>
void merge_row(E& ex, std::span<const T> from, std::span<T> into) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    ex.load(&from[i]);
    ex.load(&into[i]);
    into[i] += from[i];
    ex.store(&into[i]);
    ex.compute(1);
  }
}

/// The partial that core `tid` folds into its own at the tree level
/// combining buffers `stride` apart, or -1 when the core idles there.
/// Levels run for stride = 1, 2, 4, ... < threads.
constexpr int tree_source(int tid, int stride, int threads) noexcept {
  return tid % (2 * stride) == 0 && tid + stride < threads ? tid + stride
                                                           : -1;
}

/// Merges every thread's partial into `dest` (`dest[i] += Σ_t
/// partials[t][i]`) under `strategy` on `team`:
///   serial      the caller walks all partials — threads·width operations
///               on the critical path (linear growth);
///   tree        ceil(log2(threads)) barrier-separated levels, then the
///               caller folds partial(0) into `dest` (logarithmic growth;
///               destroys the partials);
///   privatized  each thread reduces a contiguous slice of the elements
///               across all partials (flat compute).
template <typename T>
void reduce(ReductionStrategy strategy, ThreadTeam& team, std::span<T> dest,
            PartialBuffers<T>& partials) {
  MS_CHECK(dest.size() == partials.width(), "dest size mismatch");
  MS_CHECK(strategy == ReductionStrategy::kSerial ||
               team.size() == partials.threads(),
           "team size must match partial buffer count");
  NativeExecutor ex;
  switch (strategy) {
    case ReductionStrategy::kSerial:
      merge_slice(ex, partials, dest, 0, dest.size());
      return;
    case ReductionStrategy::kTree:
      team.run([&](int tid, int threads) {
        NativeExecutor core;
        for (int stride = 1; stride < threads; stride *= 2) {
          if (const int src = tree_source(tid, stride, threads); src >= 0) {
            merge_row(core, std::span<const T>(partials.partial(src)),
                      partials.partial(tid));
          }
          team.barrier();
        }
      });
      merge_row(ex, std::span<const T>(partials.partial(0)), dest);
      return;
    case ReductionStrategy::kPrivatized:
      team.run([&](int tid, int threads) {
        NativeExecutor core;
        auto [lo, hi] = ThreadTeam::partition(0, dest.size(), tid, threads);
        merge_slice(core, partials, dest, lo, hi);
      });
      return;
  }
  MS_CHECK(false, "unknown reduction strategy");
}

/// Operations on the merging phase's critical path for `threads` partials
/// of `width` elements — the quantity the analytical model's growth
/// functions describe (linear / logarithmic / constant respectively).
std::uint64_t critical_path_ops(ReductionStrategy strategy, int threads,
                                std::size_t width);

/// Element transfers of the all-to-one + broadcast-back pattern the
/// communication model charges for: 2·(threads − 1)·width (§V-E).
std::uint64_t communication_elements(int threads, std::size_t width);

}  // namespace mergescale::runtime
