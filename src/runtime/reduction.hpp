#pragma once
// Reduction (merging-phase) strategies over privatized partial results.
//
// The paper's Algorithm 1 is the serial strategy: the master walks all
// threads' partial arrays and accumulates them, so merging work grows
// linearly with the thread count.  The alternatives it analyzes are a
// tree (logarithmic critical path) and a privatized parallel reduction
// (constant computational critical path, communication modelled
// separately in §V-E).  Each strategy is written once, as a schedule:
// ordered steps saying what every core merges (merge_schedule).  reduce()
// runs a schedule on a thread team, the simulator backend
// (workloads/sim_adapter.hpp) records and replays it step by step, and
// the native ledger charges its critical path.

#include <algorithm>
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
  /// Elements from the start of one row to the start of the next.
  std::size_t stride() const noexcept { return stride_; }

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

/// What one core merges in one step of a merging schedule: rows
/// [first, last) of the partials folded element-wise into row `into`
/// (kDest: the result) over elements [lo, hi).  An idle core's work is
/// empty.
struct MergeWork {
  static constexpr int kDest = -1;

  int first = 0;
  int last = 0;
  int into = kDest;
  std::size_t lo = 0;
  std::size_t hi = 0;

  /// Element merges this work performs.
  std::uint64_t merges() const noexcept {
    return static_cast<std::uint64_t>(last - first) * (hi - lo);
  }
};

/// One step of a schedule: entry `tid` is core tid's work.  A step of a
/// single entry runs on core 0 alone; cores synchronize between steps.
using MergeStep = std::vector<MergeWork>;

/// `strategy`'s merging phase over `threads` partials of `width`
/// elements, as ordered steps:
///   serial      one core-0 step over every partial (Algorithm 1; linear
///               growth);
///   tree        per stride 1, 2, 4, ... < threads, core tid (a multiple
///               of 2·stride) folds partial(tid + stride) into its own;
///               then core 0 folds partial(0) into the result
///               (logarithmic growth; destroys the partials);
///   privatized  one step in which each core merges its
///               ThreadTeam::partition slice of every partial (flat).
std::vector<MergeStep> merge_schedule(ReductionStrategy strategy, int threads,
                                      std::size_t width);

/// Operations on a schedule's critical path: the busiest core's element
/// merges, summed over the steps.  This is the quantity the analytical
/// model's growth functions describe.
std::uint64_t critical_path(const std::vector<MergeStep>& schedule);

/// Runs one core's `work` of a schedule step, annotated on `ex`: per
/// element, every row's value is added into the target.
template <Executor E, typename T>
void merge(E& ex, const MergeWork& work, PartialBuffers<T>& partials,
           std::span<T> dest) {
  const auto [first, last, target, lo, hi] = work;
  T* into = (target == MergeWork::kDest ? dest : partials.partial(target))
                .data();
  const T* rows = partials.partial(first).data();
  const auto fold = [&ex](const T& from, T& to) {
    ex.load(&from);
    ex.load(&to);
    to += from;
    ex.store(&to);
    ex.compute(1);
  };
  if (last - first == 1) {  // one row: a plain, vectorizable row loop
    for (std::size_t i = lo; i < hi; ++i) fold(rows[i], into[i]);
    return;
  }
  const std::size_t stride = partials.stride();
  for (std::size_t i = lo; i < hi; ++i) {
    for (int t = 0; t < last - first; ++t) {
      fold(rows[static_cast<std::size_t>(t) * stride + i], into[i]);
    }
  }
}

/// Runs `schedule` (`dest[i] += Σ_t partials[t][i]`) natively: the
/// leading multi-core steps in one region of `team`, separated by
/// barriers, then the trailing core-0 steps on the calling thread, so a
/// serial merge opens no region.
template <typename T>
void reduce(const std::vector<MergeStep>& schedule, ThreadTeam& team,
            std::span<T> dest, PartialBuffers<T>& partials) {
  MS_CHECK(dest.size() == partials.width(), "dest size mismatch");
  std::size_t team_steps = 0;
  while (team_steps < schedule.size() && schedule[team_steps].size() > 1) {
    ++team_steps;
  }
  if (team_steps > 0) {
    MS_CHECK(team.size() == partials.threads(),
             "team size must match partial buffer count");
    team.run([&](int tid, int) {
      NativeExecutor core;
      for (std::size_t s = 0; s < team_steps; ++s) {
        if (s > 0) team.barrier();
        merge(core, schedule[s][static_cast<std::size_t>(tid)], partials,
              dest);
      }
    });
  }
  NativeExecutor ex;
  for (std::size_t s = team_steps; s < schedule.size(); ++s) {
    MS_CHECK(schedule[s].size() == 1, "core-0 steps must come last");
    merge(ex, schedule[s][0], partials, dest);
  }
}

}  // namespace mergescale::runtime
