#pragma once
// Adaptive search strategies over a SearchSpace: random sampling,
// hill-climbing with random restarts, simulated annealing, a
// population-based genetic strategy, and archive-guided multi-objective
// (Pareto) search.  All of them funnel their candidate points through an
// ExploreEngine, so neighborhoods, random batches and whole generations
// are evaluated in parallel as one job list.
//
// A design point is named by its canonical flat index
// (SearchSpace::canonical), as in the sweep, the log, the archive and
// serve's `eval`.  A run keeps one visited set of those indices with
// each point's score: a revisit is answered from it, and
// `SearchOptions::budget` caps its size — distinct design points, never
// overshot, since every batch is cut to the remaining budget before
// submission.  A resumed run seeds the set with the points of its prior
// records (prior_points), which are charged once and not evaluated
// again.
//
// Determinism: given the same space, options and prior records, every
// strategy proposes the same point sequence (util::Xoshiro256 seeded
// from `seed`), and same-index points inside one batch are submitted
// once, so a search is bit-reproducible across runs and thread counts
// and a resumed run replays its predecessor's trajectory.

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "explore/engine.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"

namespace mergescale::search {

/// Available adaptive strategies.
enum class Strategy {
  kRandom,     ///< uniform random sampling of the grid
  kHillClimb,  ///< steepest-ascent over ±1 coordinate steps, with restarts
  kAnneal,     ///< simulated annealing: multiple interacting walkers
               ///< (one batch per round) with geometric cooling,
               ///< periodic best-state exchange, and restarts
  kGenetic,    ///< population-based: tournament selection, per-axis
               ///< crossover, ±1 mutation, elitism; one batch/generation
  kPareto,     ///< multi-objective: offspring of the incremental Pareto
               ///< archive (speedup vs. SearchOptions::cost_metric)
};

/// Printable strategy name ("random", "hill-climb", "anneal", "genetic",
/// "pareto").
std::string_view strategy_name(Strategy strategy) noexcept;

/// Parses a strategy name (throws std::invalid_argument).
Strategy parse_strategy(std::string_view name);

struct SearchOptions {
  Strategy strategy = Strategy::kHillClimb;
  std::uint64_t budget = 1000;  ///< max distinct design points (hard cap)
  /// Not read: run_search charges a resume's `prior` itself.  Kept only
  /// for perfbench/tool/replay.cpp.
  std::uint64_t already_spent = 0;
  std::uint64_t seed = 0x2011'1CBBULL;
  std::size_t batch = 64;       ///< random-search proposals per round
  /// Annealing: number of interacting walkers.  Every round submits one
  /// candidate per walker as a single deduped batch, so the engine's
  /// thread team evaluates a full front of moves in parallel instead of
  /// idling between the single moves of a sequential walker.  Walkers
  /// periodically exchange best states (the coldest-performing chain
  /// jumps to the incumbent best and reheats).  Part of the proposal
  /// sequence: resuming a persisted anneal run requires the same value.
  std::size_t walkers = 8;
  std::size_t population = 32;  ///< genetic/pareto: individuals per
                                ///< generation (submitted as one batch)
  /// Cost axis of the Pareto archive (and of the kPareto selection
  /// pressure); the archive is maintained for every strategy.
  explore::CostMetric cost_metric = explore::CostMetric::kCoreArea;
};

/// One point of a strategy's convergence curve, recorded after every
/// round (batch, climb step, annealing move, or generation).
struct TracePoint {
  std::uint64_t evaluations = 0;  ///< distinct design points charged so far
  double best_speedup = 0.0;      ///< best feasible speedup found so far
};

struct SearchOutcome {
  bool found = false;             ///< at least one feasible point was seen
  /// explore::best_result over the run's records (prior ones included),
  /// when found: of two points with equal speedup, the lower canonical
  /// index, whichever the run met first.
  explore::EvalResult best;
  std::uint64_t evaluations = 0;  ///< distinct design points charged
                                  ///< (prior ones too); <= budget
  std::uint64_t proposals = 0;    ///< in-bounds points proposed (incl.
                                  ///< revisits; out-of-bounds coords
                                  ///< never become jobs and don't count)
  std::uint64_t restarts = 0;     ///< restarts taken (hill-climb / anneal)
  std::vector<TracePoint> trace;  ///< convergence curve, best nondecreasing
  /// Incremental Pareto archive (speedup vs. SearchOptions::cost_metric)
  /// over the run's records (prior ones included): explore::
  /// pareto_frontier over them, record for record.
  std::vector<explore::EvalResult> archive;

  /// Earliest trace point whose best speedup is within `fraction` (e.g.
  /// 0.01) of `target`; std::nullopt when the trace never gets there.
  /// The optional distinguishes "never reached" from "reached with 0
  /// evaluations" (a resumed run can start inside the band).
  std::optional<TracePoint> first_within(double target,
                                         double fraction) const noexcept;
};

/// Folds one result into a 2-D Pareto archive maintained incrementally
/// (cost ascending, speedup strictly increasing, one entry per cost
/// value: the one that ranks first under explore::ranks_before, the
/// earlier fold on a full tie) — the operation run_search applies to
/// SearchOutcome::archive after every evaluation.  Infeasible results
/// are ignored.  For any insertion sequence the final archive equals
/// explore::pareto_frontier over the whole sequence, record for
/// record, so tests can drive adversarial insertion orders directly.
void fold_archive(std::vector<explore::EvalResult>& archive,
                  const explore::EvalResult& result,
                  explore::CostMetric metric);

/// A design point a resumed run's records name, with the first of them.
struct PriorPoint {
  std::uint64_t flat = 0;
  const explore::EvalResult* record = nullptr;

  auto operator<=>(const PriorPoint&) const = default;
};

/// The design points of `space` that `records` name — by
/// SearchSpace::index_of(DesignKey::of(record)), the inverse serve's
/// `eval` uses — in flat order, each with its first record.  Records
/// naming no point of the space are left out; the result points into
/// `records`.
std::vector<PriorPoint> prior_points(
    const SearchSpace& space, std::span<const explore::EvalResult> records);

/// Flat indices one run_sweep block spans: the unit a worker claims,
/// evaluates and encodes, and the calling thread appends to the log.
inline constexpr std::uint64_t kSweepBlock = 4096;

/// The exhaustive sweep over `range` of `space` — a whole run is
/// ShardPlan(space.size(), 1).range(0), shard i of K is
/// ShardPlan(space.size(), K).range(i).  Visits exactly the flats that
/// are their own SearchSpace::canonical index and returns their results
/// in flat order, each with its flat as its index.  So the sweep meets
/// no design point twice, and the union of a K-shard run's results is
/// the 1-shard run's.  A flat in `prior` (sorted, as prior_points
/// returns it) is not evaluated: its result is a copy of its record,
/// marked `from_cache`.  The engine's cache settings apply
/// (ExploreEngine::evaluate_block); the sweep meets no design point
/// twice, so a cached result is one the cache held before the sweep.
///
/// One ordered block pipeline on engine.team() (runtime::
/// run_ordered_blocks): workers claim blocks of kSweepBlock flats in
/// ascending order, filter them to canonical flats, build and evaluate
/// their jobs and, when `log` is non-null, encode their fresh results'
/// log frames; the calling thread appends each block's frames to `log`
/// and moves its results into the returned vector in block order, and
/// evaluates blocks itself when the next one is not ready.  The log's
/// bytes do not depend on the team size.  The log is flushed at the
/// end: a failed group fails the sweep, after the team has joined.  A
/// killed sweep loses the log's filling group and the blocks evaluated
/// but not yet appended, at most the ring of 2 blocks per worker.
std::vector<explore::EvalResult> run_sweep(
    explore::ExploreEngine& engine, const SearchSpace& space,
    const ShardRange& range, RunLog* log = nullptr,
    std::span<const PriorPoint> prior = {});

/// Runs `options.strategy` over `space` through `engine`, its visited
/// set seeded with `prior`.  A prior point is folded into `best` and
/// `archive` when the run first proposes it, where an uninterrupted run
/// evaluated it (one never proposed, at the end), so a resume with the
/// same options ends with an uninterrupted run's best, archive and
/// spend.  When `log` is non-null every evaluation is appended.
SearchOutcome run_search(explore::ExploreEngine& engine,
                         const SearchSpace& space,
                         const SearchOptions& options, RunLog* log = nullptr,
                         std::span<const PriorPoint> prior = {});

}  // namespace mergescale::search
