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

/// Highest-speedup feasible result, or nullptr when every result is
/// infeasible (the aggregate analogue of core::try_best_point).
const EvalResult* best_result(const std::vector<EvalResult>& results) noexcept;

/// The canonical one-line "best: ..." summary (no trailing newline).
/// explore_cli prints it and the serve layer answers `best` queries with
/// it, so a server's answer is byte-identical to the CLI's report on the
/// same records.
std::string best_line(const EvalResult& best);

/// The k highest-speedup feasible results, speedup-descending; ties break
/// toward the lower job index (then the earlier input position) so the
/// output is deterministic.  Sorts compact keys, copies only the winners.
std::vector<EvalResult> top_k(const std::vector<EvalResult>& results,
                              std::size_t k);

/// The per-cost reduction every Pareto frontier is built from.  Only the
/// best candidate at each distinct cost (compared with ==) can reach the
/// frontier, so a caller offer()s its feasible candidates in input order,
/// each under an id of its own (input position, archive row, ...), and
/// materializes only frontier()'s ids.  Per cost the highest speedup
/// wins, ties toward the lower index, then the earlier offer.  Memory is
/// one entry per distinct cost; a NaN cost is never kept.
class ParetoReduction {
 public:
  void offer(double cost, double speedup, std::size_t index, std::size_t id);

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
    double speedup = 0.0;
    std::size_t index = 0;
    std::size_t id = 0;
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
/// result per cost value, the speedup-best; ties toward lower index, then
/// the earlier input position), so speedup is strictly increasing along
/// the returned vector.  A ParetoReduction over the input; copies only
/// the frontier.
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
/// when null): each worker reduces a contiguous share of `results` to
/// its best, its k best rank keys (a bounded heap) and a
/// ParetoReduction, and the shares merge in share order, so every tie
/// resolves as in the serial functions and nothing depends on the team
/// size.  `team` must not be running a region of its own.
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
