#pragma once
// Coordinate view of a ScenarioSpec for adaptive search.  Exhaustive
// exploration expands the spec's cross product into a flat job list; the
// adaptive strategies instead need random access to individual design
// points and a notion of neighborhood.  SearchSpace provides both: it
// treats the spec's axes — chip budgets × apps × growths × variants ×
// topologies × small-core sizes × core sizes — as a uniform mixed-radix
// grid and materializes single evaluation jobs on demand, so spaces with
// 10^5..10^9 points are searchable without ever enumerating them.
//
// The grid is deliberately *uniform*: the topology coordinate is inert
// for the non-comm variants and the small-core coordinate is inert for
// the symmetric ones, so several coordinates can denote the same design
// point.  The engine's memo cache collapses those duplicates to a single
// model evaluation, which keeps the budget accounting (unique
// evaluations, i.e. cache misses) honest.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "explore/scenario.hpp"

namespace mergescale::search {

/// One point of the uniform grid, as indices into the spec's axes in the
/// order budget, app, growth, variant, topology, small-core size, size.
using Coords = std::array<std::size_t, 7>;

class SearchSpace {
 public:
  static constexpr std::size_t kDims = 7;

  /// Validates and captures `spec`.  An empty `spec.sizes` resolves to
  /// power_of_two_sizes(max budget) once, shared by every budget.
  explicit SearchSpace(explore::ScenarioSpec spec);

  /// Number of values along axis `dim` (>= 1 for every axis).
  std::size_t axis_size(std::size_t dim) const;

  /// Total number of grid points (product of the axis sizes).
  std::uint64_t size() const noexcept { return size_; }

  /// Mixed-radix decode of a flat index in [0, size()).
  Coords decode(std::uint64_t flat) const;

  /// Inverse of decode().
  std::uint64_t encode(const Coords& coords) const;

  /// Builds the evaluation job for `coords` (job index 0; callers
  /// renumber for batching).  Returns false — without touching `*out` —
  /// when the point is out of bounds for its own budget: a candidate
  /// core larger than the whole chip is not a design point, merely an
  /// artifact of sharing one size grid across budgets.
  bool job_at(const Coords& coords, explore::EvalJob* out) const;

  /// Materializes the in-bounds jobs of the flat range [begin, end) into
  /// `out`, renumbered so out[i].index == i — ready for
  /// ExploreEngine::run.  The batch counterpart of job_at for the
  /// chunked sweeps: `out`'s slots are reused across calls (strings and
  /// law objects are assigned in place, and fields a slot already holds
  /// — the spec name, an unchanged perf law or growth — are left
  /// untouched), so a steady-state chunk loop materializes a point for a
  /// fraction of a fresh EvalJob construction.  Like the cache key and
  /// the batch grouping, law identity is judged by (kind, interned name,
  /// exponent).  Note: fields the variant never reads (comm growth,
  /// comp_share of a non-comm point) may hold stale values from the
  /// slot's previous occupant; every consumer normalizes them away.
  void jobs_in(std::uint64_t begin, std::uint64_t end,
               std::vector<explore::EvalJob>& out) const;

  /// The resolved candidate-size grid (never empty).
  const std::vector<double>& sizes() const noexcept { return sizes_; }

  const explore::ScenarioSpec& spec() const noexcept { return spec_; }

 private:
  explore::ScenarioSpec spec_;
  std::vector<double> sizes_;   ///< resolved size grid
  std::vector<double> smalls_;  ///< small-core grid (>= 1 entry)
  std::vector<core::GrowthFunction> comm_laws_;  ///< per spec topology
  std::uint64_t size_ = 0;
};

/// Half-open range of flat SearchSpace indices owned by one shard.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin == end; }
};

/// Deterministic partition of a mixed-radix SearchSpace across K
/// processes.  Exhaustive shards own contiguous flat-index ranges (the
/// first `size % K` shards are one point larger, so ranges differ by at
/// most one point and tile [0, size) exactly); adaptive shards instead
/// act as seed-derived walker groups — each runs the full strategy over
/// the whole space under `shard_seed(seed, i, K)`, which decorrelates
/// the K trajectories while keeping every one of them reproducible and
/// individually resumable.  The plan is a pure function of (size, K), so
/// K independent processes — or the same process re-run after a kill —
/// always agree on who owns what without any coordination.
class ShardPlan {
 public:
  /// Throws std::invalid_argument when `shard_count` is zero.
  ShardPlan(std::uint64_t space_size, std::size_t shard_count);

  std::size_t shard_count() const noexcept { return shard_count_; }
  std::uint64_t space_size() const noexcept { return space_size_; }

  /// The contiguous flat-index range of `shard` (< shard_count).  Shards
  /// past the space size own empty ranges.
  ShardRange range(std::size_t shard) const;

  /// Inverse of range(): the shard owning flat index `flat` (< size).
  std::size_t shard_of(std::uint64_t flat) const;

  /// Derived RNG seed for an adaptive shard: one SplitMix64 expansion of
  /// (seed, count) advanced to position `shard`, so sibling shards get
  /// decorrelated streams and the derivation is stable across runs,
  /// resumes, and machines.
  static std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard,
                                  std::size_t shard_count);

 private:
  std::uint64_t space_size_ = 0;
  std::size_t shard_count_ = 1;
};

/// Parsed `--shard i/K` specification.
struct ShardSpec {
  std::size_t index = 0;  ///< this process's shard, in [0, count)
  std::size_t count = 1;  ///< total shards of the run
};

/// Parses "i/K" (throws std::invalid_argument on malformed input,
/// K == 0, or i >= K).
ShardSpec parse_shard_spec(std::string_view text);

}  // namespace mergescale::search
