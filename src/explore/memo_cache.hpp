#pragma once
// Sharded memoization cache for design-point evaluations.  Repeated
// sweeps — bench reruns, overlapping scenario grids, refined specs — hit
// the cache instead of re-evaluating the analytical models.  The key is a
// value fingerprint of the EvalRequest (not the app's label), so two
// scenarios that touch the same numeric design point share one entry.
//
// Custom PerfLaw / GrowthFunction instances are distinguished by their
// *name* (the callable itself cannot be fingerprinted); give custom laws
// unique names or caching will conflate them.  The built-in families are
// fully captured by kind + exponent.
//
// explore_cli and serve_cli no longer read it (design points are named
// by search::SearchSpace::canonical); MemoCache, CacheKey and
// cache_key(s) stay only because perfbench/tool/replay.cpp names them.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/design_space.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::explore {

/// Cacheable outcome of one evaluation: a feasible point or a recorded
/// infeasibility (so infeasible asymmetric points also memoize).
struct EvalOutcome {
  bool feasible = false;
  core::DesignPoint point;
};

/// Value fingerprint of an EvalRequest (kept for replay.cpp) — a
/// fixed-size POD: building, hashing, and comparing a key never
/// allocates.  Names enter the key as util::intern IDs, which the
/// interner pins to the verbatim strings with full-string comparison on
/// the (rare) intern slow path; ID equality is therefore exactly
/// verbatim-name equality, so neither a 64-bit hash collision nor two
/// name tuples that happen to concatenate identically can return a
/// wrong result — the same guarantee the key gave when it carried the
/// strings themselves.
///
/// Fields that a variant does not read are normalized away: the comm
/// growth, comp_share, and (for the comm variants' label) topology only
/// enter the key for Eqs. 6/7, and rl only for the asymmetric variants.
/// Two requests that evaluate identically therefore share one entry no
/// matter which scenario produced them.
struct CacheKey {
  std::uint8_t variant = 0;
  std::uint8_t growth_kind = 0;
  std::uint8_t comm_growth_kind = 0;
  std::uint32_t perf_name = 0;         ///< interned PerfLaw name
  std::uint32_t growth_name = 0;       ///< interned growth name
  std::uint32_t comm_growth_name = 0;  ///< interned comm-growth name,
                                       ///< 0 ("") for Eqs. 4/5
  std::array<double, 10> nums{};  ///< n, perf exp, f, fcon, fored,
                                  ///< comp_share, growth exp, comm exp, r, rl

  bool operator==(const CacheKey&) const = default;
};

/// Builds the fingerprint of a request (kept for replay.cpp).  Performs
/// no heap allocation and touches no string bytes (names were interned
/// when the laws were constructed).
CacheKey cache_key(const core::EvalRequest& request);

/// Batch form: fills `keys[i] = cache_key(requests[i])`.  One call keys a
/// whole claim block, matching the batch evaluation path so keying does
/// not re-introduce per-request call overhead on the 4×-faster hot loop.
/// `keys.size()` must equal `requests.size()`.
void cache_keys(std::span<const core::EvalRequest> requests,
                std::span<CacheKey> keys);

/// Hash functor for CacheKey (also used for shard selection).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

/// Thread-safe memoization cache, sharded to keep lock contention off the
/// explore engine's hot path.  Shard count is fixed at construction.
/// Kept for replay.cpp (see the file comment).
///
/// Reads take a shared lock: a warmed cache probed from several threads
/// (a resumed run's engine workers) is mostly lookups of entries that
/// are never erased, so concurrent readers must not serialize on each
/// other — only an insert (a miss) takes a shard exclusively.
///
/// Storage is a per-shard open-addressing table (linear probing over
/// hash fingerprints, entries never erased individually) rather than a
/// node-based map: an insert is a slot write with no per-entry heap
/// allocation, which matters on a cold exhaustive sweep where every
/// point inserts exactly once.  The block entry points amortize the
/// hash-and-lock overhead across an engine claim block — each key is
/// hashed once, each shard locked at most once per block — and are the
/// paths evaluate_jobs rides.
class MemoCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  explicit MemoCache(std::size_t shard_count = 16);

  /// Looks `key` up; on a hit copies the outcome into `*out`.  Updates
  /// the hit/miss counters.
  bool lookup(const CacheKey& key, EvalOutcome* out) const;

  /// Whether `key` is memoized, *without* touching the hit/miss
  /// counters.  The search layer probes this to plan batch submissions:
  /// misses are the budget currency, so a planning probe must not be
  /// mistaken for an evaluation.
  bool contains(const CacheKey& key) const;

  /// Inserts (or overwrites) the outcome for `key`.  Returns true when
  /// `key` was not yet memoized — the insert created a new entry — so
  /// callers that count distinct keys (warm-loading a run log) learn it
  /// from the insert itself instead of double-probing the shard with a
  /// contains() first.
  bool insert(const CacheKey& key, const EvalOutcome& outcome);

  /// Block lookup: for each i sets hits[i] and, on a hit, outs[i].
  /// Counts one hit or miss per key.  All three spans must be the same
  /// length.  Equivalent to lookup() per element, with each shard locked
  /// at most once for the whole block.
  void lookup_block(std::span<const CacheKey> keys,
                    std::span<EvalOutcome> outs,
                    std::span<std::uint8_t> hits) const;

  /// Block insert: inserts (or overwrites) keys[i] -> outs[i] for every
  /// i, locking each shard at most once.  Spans must be the same length.
  void insert_block(std::span<const CacheKey> keys,
                    std::span<const EvalOutcome> outs);

  /// Pre-sizes every shard for `expected` total entries, so a sweep
  /// that knows its point count up front (an exhaustive space walk, a
  /// warm-load from a run log) inserts without any mid-sweep rehash.
  /// Existing entries are kept; shrinking is not supported.
  void reserve(std::size_t expected);

  /// Number of distinct memoized design points.
  std::size_t size() const;

  /// Cumulative hit/miss counters since construction or clear().
  Stats stats() const;

  /// Drops all entries and resets the counters.
  void clear();

  /// Number of shards (for tests).
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  /// Open-addressing shard: parallel fingerprint/key/outcome arrays with
  /// power-of-two capacity.  fp 0 marks an empty slot (fingerprints are
  /// forced odd), linear probing, grown at 3/4 load.  Every table member
  /// is guarded by `mu` — a reader lock suffices for find(), the
  /// mutating paths require the shard exclusively.
  struct Shard {
    mutable util::SharedMutex mu;
    std::vector<std::uint64_t> fps MS_GUARDED_BY(mu);
    std::vector<CacheKey> keys MS_GUARDED_BY(mu);
    std::vector<EvalOutcome> vals MS_GUARDED_BY(mu);
    std::size_t used MS_GUARDED_BY(mu) = 0;

    bool find(std::uint64_t hash, const CacheKey& key,
              std::size_t* slot) const noexcept MS_REQUIRES_SHARED(mu);
    /// Returns true when the key filled an empty slot (false: overwrite).
    bool put(std::uint64_t hash, const CacheKey& key,
             const EvalOutcome& outcome) MS_REQUIRES(mu);
    void grow() MS_REQUIRES(mu);
    void rebuild(std::size_t cap) MS_REQUIRES(mu);
  };

  std::size_t shard_of(std::uint64_t hash) const noexcept {
    // High bits pick the shard, low bits the slot, so striping across
    // shards stays independent of the in-shard probe sequence.
    return static_cast<std::size_t>(hash >> 48) % shards_.size();
  }

  /// Counting-sort grouping for the block ops: fills `order` (length
  /// `count`) with key indices grouped by shard, and `starts` with each
  /// shard's [starts[s], starts[s+1]) range into it.
  void group_by_shard(const std::uint64_t* hashes, std::size_t count,
                      std::uint32_t* order,
                      std::vector<std::uint32_t>& starts) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace mergescale::explore
