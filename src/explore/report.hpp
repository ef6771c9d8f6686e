#pragma once
// Aggregation and persistence of exploration results: best point, top-k,
// 2-D Pareto frontier (speedup vs. a cost metric), and CSV / NDJSON
// emission for downstream plotting.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "runtime/thread_team.hpp"
#include "util/table.hpp"

namespace mergescale::explore {

/// The one rank order behind every best, top-k and Pareto answer in
/// explore, search and serve: speedup descending; ties go to the lower
/// canonical index, then to the earlier input.  `id` is the caller's
/// "earlier" (an input position, an archive row, a delta position).
/// With distinct ids the order is total, so partial answers — a sweep's
/// shares, an archive and its delta, a search's folds — merge in any
/// order to the answer of one pass.
struct RankKey {
  double speedup = 0.0;
  std::size_t index = 0;
  std::size_t id = 0;
};

/// Whether `a` ranks strictly before `b` under the rank order.
constexpr bool ranks_before(const RankKey& a, const RankKey& b) noexcept {
  if (a.speedup != b.speedup) return a.speedup > b.speedup;
  if (a.index != b.index) return a.index < b.index;
  return a.id < b.id;
}

constexpr RankKey rank_key(const EvalResult& result, std::size_t id) noexcept {
  return {result.speedup, result.index, id};
}

/// The bounded selection every best and top-k answer is read from: of
/// the keys offered, the k that rank first.
class TopK {
 public:
  /// Reserves room for min(k, `offers`) keys, so the first `offers`
  /// offer() calls never allocate.
  explicit TopK(std::size_t k, std::size_t offers = 0);

  void offer(const RankKey& key);

  /// Offers `later`'s keys: the selections of an input's shares, merged
  /// in any order, leave the selection of one pass over the input.
  void merge(const TopK& later);

  /// Ids of the kept keys, best first.
  std::vector<std::size_t> ids() const;

  /// The worst kept key once k are kept, else nullptr: the cutoff a key
  /// must rank before to enter, where a zone-map scan can stop.
  const RankKey* cutoff() const noexcept;

 private:
  std::size_t k_;
  std::vector<RankKey> heap_;  ///< a ranks_before heap: the worst on top
};

/// The feasible result that ranks first (ids being input positions), or
/// nullptr when every result is infeasible.
const EvalResult* best_result(const std::vector<EvalResult>& results) noexcept;

/// The canonical one-line "best: ..." summary (no trailing newline).
/// explore_cli prints it and the serve layer answers `best` queries with
/// it, so a server's answer is byte-identical to the CLI's report on the
/// same records.
std::string best_line(const EvalResult& best);

/// The k feasible results that rank first, best first, ids being input
/// positions.  A TopK over the input; copies only the winners.
std::vector<EvalResult> top_k(const std::vector<EvalResult>& results,
                              std::size_t k);

/// The per-cost reduction every Pareto frontier is built from.  Only the
/// best candidate at each distinct cost (compared with ==) can reach the
/// frontier, so a caller offer()s its feasible candidates, each under an
/// id of its own (input position, archive row, ...) in ascending order,
/// and materializes only frontier()'s ids.  Per cost the key that ranks
/// first wins.  Memory is one entry per distinct cost; a NaN cost is
/// never kept.
class ParetoReduction {
 public:
  void offer(double cost, const RankKey& key);

  /// Offers `later`'s per-cost winners in its first-seen order.  Merging
  /// the reductions of consecutive input shares in share order leaves
  /// the reduction one pass over the whole input leaves.
  void merge(const ParetoReduction& later);

  /// Ids of the frontier, cost ascending: the per-cost winners whose
  /// speedup strictly exceeds every cheaper winner's.
  std::vector<std::size_t> frontier() const;

 private:
  struct Winner {
    double cost = 0.0;
    RankKey key;
  };
  /// Rebuilds slots_ at twice the size.
  void grow();

  std::vector<Winner> winners_;  ///< one per distinct cost, first-seen order
  /// Open addressing by cost: winners_ position + 1, 0 when empty.  A
  /// power of two, at most half full.
  std::vector<std::uint32_t> slots_;
};

/// 2-D Pareto frontier over feasible results: maximize speedup, minimize
/// cost.  Returns the non-dominated set sorted by cost ascending (one
/// result per cost value, the one that ranks first, ids being input
/// positions), so speedup strictly increases along it.  A
/// ParetoReduction over the input; copies only the frontier.
std::vector<EvalResult> pareto_frontier(const std::vector<EvalResult>& results,
                                        CostMetric metric);

/// best_result, top_k and pareto_frontier of one result set — what
/// explore_cli reports after a sweep — from summarize().
struct Summary {
  const EvalResult* best = nullptr;  ///< best_result(results)
  std::vector<EvalResult> top;       ///< top_k(results, k)
  std::vector<EvalResult> frontier;  ///< pareto_frontier(results, metric)
};

/// The three reductions in one pass on `team` (the calling thread alone
/// when null): each worker reduces a contiguous share of `results` to a
/// TopK of max(k, 1) keys and a ParetoReduction, and the shares merge in
/// share order, so every tie resolves as in the serial functions and
/// nothing depends on the team size.  The best is the selection's first
/// id.  `team` must not be running a region of its own.
Summary summarize(const std::vector<EvalResult>& results, std::size_t k,
                  CostMetric metric, runtime::ThreadTeam* team = nullptr);

/// 2-D hypervolume of a non-dominated set (maximize speedup, minimize
/// cost) against the reference point (`ref_cost`, speedup 0): the area of
/// the cost × speedup region dominated by at least one frontier point.
/// `frontier` need not be sorted; dominated members contribute nothing
/// and points at or beyond `ref_cost` are ignored, so the value is a
/// faithful quality measure for any archive, exact frontier or not.
double hypervolume(const std::vector<EvalResult>& frontier, CostMetric metric,
                   double ref_cost);

/// Canonical hypervolume reference cost for designs of `spec`: just
/// beyond the largest chip budget, which bounds both cost metrics (no
/// core — and no core count — can exceed the chip), so every frontier
/// point contributes.
double hypervolume_ref_cost(const ScenarioSpec& spec);

/// Renders a Pareto archive as a table (cost ascending): per point the
/// cost, speedup, and its hypervolume share against `ref_cost` (the cost
/// slice it dominates, times its speedup), plus the design coordinates.
/// The shares sum to hypervolume(archive, metric, ref_cost).
util::Table archive_summary(const std::vector<EvalResult>& archive,
                            CostMetric metric, double ref_cost);

/// Renders results as a util::Table (one row per result, header
/// scenario/variant/n/app/growth/topology/r/rl/cores/feasible/speedup/
/// cached): n, r, rl and cores as printf "%.9g", speedup as "%.3f".
util::Table to_table(const std::vector<EvalResult>& results);

/// The top-k and Pareto-frontier table texts: to_table() under the
/// titles "top-k designs by speedup" and "Pareto frontier (speedup vs.
/// <cost_metric_label(metric)>)".  explore_cli prints them and the
/// server answers `topk`/`pareto` with them, like best_line.
std::string top_k_text(const std::vector<EvalResult>& top);
std::string pareto_text(const std::vector<EvalResult>& frontier,
                        CostMetric metric);

/// Writes the CSV report: the to_table() header and cells, one line per
/// result, with a cell double-quoted (inner quotes doubled) when it holds
/// a comma, quote or newline.  The bytes are a contract — the same as
/// to_table(results).to_csv() — so reports stay cmp-comparable across
/// versions; rows render into reused block buffers, never a Table.
///
/// Both writers render blocks of 4096 rows on `team` (the calling thread
/// alone when null), at most two blocks per worker in memory at once,
/// while the calling thread writes the rendered blocks in row order: the
/// output bytes do not depend on the team size (explore_cli's
/// --threads).  `team` must not be running a region of its own.
void write_csv(std::ostream& os, const std::vector<EvalResult>& results,
               runtime::ThreadTeam* team = nullptr);

/// Writes one JSON object per line (NDJSON): index, scenario, variant, n,
/// app, growth, topology, r, rl, cores, feasible, speedup, cached in that
/// order, numbers as printf "%.17g" (exact round-trip; `null` when not
/// finite) and strings escaped as util::json_escaped does.  Byte-stable
/// like write_csv, and rendered the same way; `explore_cli --dump`
/// prints records through it.
void write_ndjson(std::ostream& os, const std::vector<EvalResult>& results,
                  runtime::ThreadTeam* team = nullptr);

/// One row of a strategy-vs-baseline comparison (filled in by callers —
/// typically from a search::SearchOutcome, but report stays independent
/// of the search layer).
struct StrategySummary {
  std::string strategy;            ///< display label ("exhaustive", ...)
  std::uint64_t evaluations = 0;   ///< unique model evaluations consumed
  double best_speedup = 0.0;       ///< best feasible speedup found
  std::uint64_t to_within_1pct = 0;  ///< evaluations until within 1% of
                                     ///< the baseline best
  /// Whether the strategy reached within 1% at all.  Kept separate from
  /// `to_within_1pct` because 0 evaluations is a legitimate convergence
  /// point (a warm-loaded resume can start inside 1%), not a sentinel.
  bool converged = false;
};

/// Renders a comparison of adaptive strategies against the exhaustive
/// baseline: per strategy, the budget consumed (absolute and as a
/// fraction of the baseline), the best speedup, its gap to the baseline
/// optimum, and the evaluations-to-within-1% convergence figure.
util::Table strategy_comparison(const StrategySummary& baseline,
                                const std::vector<StrategySummary>& strategies);

}  // namespace mergescale::explore
