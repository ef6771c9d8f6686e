#pragma once
// Adaptive search strategies over a SearchSpace: random sampling,
// hill-climbing with random restarts, simulated annealing, a
// population-based genetic strategy, and archive-guided multi-objective
// (Pareto) search.  All of them funnel their candidate points through an
// ExploreEngine, so evaluations are parallel (neighborhoods, random
// batches, and whole generations are evaluated as one job list) and
// memoized — revisiting a point costs a cache hit, not a model
// evaluation.
//
// Budget accounting: `SearchOptions::budget` caps *unique* model
// evaluations, measured as the engine cache's miss delta.  Duplicate
// coordinates, revisited neighbors, and warm-loaded (resumed) results are
// free, which makes budgets comparable to the exhaustive baseline's job
// count.  Every batch is clamped to the remaining budget before
// submission, so `SearchOutcome::evaluations <= budget` holds for every
// strategy — the budget is a hard cap, never overshot.
//
// run_sweep is the exhaustive counterpart: every canonical design point
// of a flat-index range, in ascending order, each evaluated once.
//
// Determinism: given the same space, options, and engine cache state,
// every strategy proposes the same point sequence (util::Xoshiro256
// seeded from `seed`), and same-key points inside one batch are deduped
// before submission — so the miss count cannot race inside the engine
// and searches are bit-reproducible across runs and thread counts.

#include <cstdint>
#include <optional>
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
  std::uint64_t budget = 1000;  ///< max unique model evaluations (hard cap)
  /// Unique evaluations a previous (killed, then resumed) run already
  /// spent against the same budget — typically the warm-loaded run-log
  /// size.  Counted toward `budget`, so a resumed run replays the prior
  /// trajectory for free (same seed → same proposals, all cache hits)
  /// and then stops exactly where an uninterrupted run would have.
  std::uint64_t already_spent = 0;
  std::uint64_t seed = 0x2011'1CBBULL;
  std::size_t batch = 64;       ///< random-search proposals per round
  double t0 = 0.05;             ///< annealing: initial temperature, as a
                                ///< fraction of the current best speedup
  double cooling = 0.98;        ///< annealing: geometric factor per move
  double t_min = 1e-4;          ///< annealing: restart threshold
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
  std::size_t elite = 2;        ///< genetic: top individuals carried into
                                ///< the next generation unchanged
  /// Cost axis of the Pareto archive (and of the kPareto selection
  /// pressure); the archive is maintained for every strategy.
  explore::CostMetric cost_metric = explore::CostMetric::kCoreArea;
};

/// One point of a strategy's convergence curve, recorded after every
/// round (batch, climb step, annealing move, or generation).
struct TracePoint {
  std::uint64_t evaluations = 0;  ///< unique evaluations consumed so far
  double best_speedup = 0.0;      ///< best feasible speedup found so far
};

struct SearchOutcome {
  bool found = false;             ///< at least one feasible point was seen
  explore::EvalResult best;       ///< best feasible result (when found)
  std::uint64_t evaluations = 0;  ///< unique model evaluations consumed,
                                  ///< including `already_spent`;
                                  ///< always <= SearchOptions::budget
  std::uint64_t proposals = 0;    ///< in-bounds points proposed (incl.
                                  ///< cache hits; out-of-bounds coords
                                  ///< never become jobs and don't count)
  std::uint64_t restarts = 0;     ///< restarts taken (hill-climb / anneal)
  std::vector<TracePoint> trace;  ///< convergence curve, best nondecreasing
  /// Incremental Pareto archive (speedup vs. SearchOptions::cost_metric)
  /// over every feasible result seen, maintained during the run: cost
  /// ascending, speedup strictly increasing, one entry per cost value —
  /// the same shape explore::pareto_frontier returns for an exhaustive
  /// sweep.
  std::vector<explore::EvalResult> archive;

  /// Earliest trace point whose best speedup is within `fraction` (e.g.
  /// 0.01) of `target`; std::nullopt when the trace never gets there.
  /// The optional distinguishes "never reached" from "reached with 0
  /// evaluations" (a warm-loaded resume can start inside the band).
  std::optional<TracePoint> first_within(double target,
                                         double fraction) const noexcept;
};

/// Folds one result into a 2-D Pareto archive maintained incrementally
/// (cost ascending, speedup strictly increasing, one entry per cost
/// value) — the exact operation run_search applies to
/// SearchOutcome::archive after every evaluation.  Infeasible results
/// are ignored.  Exposed so merge tooling can rebuild an archive from a
/// unioned run log and so tests can drive adversarial insertion orders
/// directly; for any insertion sequence the final archive equals
/// explore::pareto_frontier over the whole sequence.
void fold_archive(std::vector<explore::EvalResult>& archive,
                  const explore::EvalResult& result,
                  explore::CostMetric metric);

/// Flat indices one run_sweep chunk spans.  A chunk is one engine
/// dispatch; its fresh results reach the log when it completes.
inline constexpr std::uint64_t kSweepChunk = 8192;

/// The exhaustive sweep over `range` of `space` — a whole run is
/// ShardPlan(space.size(), 1).range(0), shard i of K is
/// ShardPlan(space.size(), K).range(i).  Evaluates, in ascending chunks
/// of kSweepChunk flats, exactly the flats that are their own
/// SearchSpace::canonical index, and returns their results in flat
/// order, each with its flat as its index.  So the sweep meets no design
/// point twice, and the union of a K-shard run's results is the 1-shard
/// run's.  When `log` is non-null each chunk's fresh (non-cached)
/// results are appended as the chunk completes, and the log is flushed
/// at the end: a failed final group fails the sweep.
std::vector<explore::EvalResult> run_sweep(explore::ExploreEngine& engine,
                                           const SearchSpace& space,
                                           const ShardRange& range,
                                           RunLog* log = nullptr);

/// Runs `options.strategy` over `space` through `engine` (which must have
/// memoization enabled — budgets are measured as cache misses).  When
/// `log` is non-null every *fresh* evaluation (cache miss) is appended,
/// so a killed search can be resumed by warm-loading the log.
SearchOutcome run_search(explore::ExploreEngine& engine,
                         const SearchSpace& space,
                         const SearchOptions& options, RunLog* log = nullptr);

}  // namespace mergescale::search
