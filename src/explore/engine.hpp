#pragma once
// Parallel design-space exploration engine.  Expands a ScenarioSpec (or
// takes a pre-expanded job list) and fans the jobs out over a persistent
// runtime::ThreadTeam via a shared work queue.  Which points need
// evaluating is the caller's call: search::run_sweep and
// search::run_search evaluate each canonical design point once, so
// explore_cli runs without the memo cache, which stays (use_cache,
// cache(), cache_keys) only for perfbench/tool/replay.cpp.
//
// Determinism: result i always corresponds to job i (workers claim job
// *indices* and write results into the matching slot), so the evaluated
// fields are identical across thread counts and cache states.  The
// `from_cache` flag is false exactly for the first job of each design
// point the cache did not hold before *this* run: it flips on repeats,
// but never with scheduling, even for duplicate points inside one batch.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval_batch.hpp"
#include "explore/memo_cache.hpp"
#include "explore/scenario.hpp"
#include "runtime/thread_team.hpp"
#include "util/check.hpp"

namespace mergescale::explore {

/// One evaluated (or infeasible) design point with its scenario
/// coordinates, self-contained for reporting and persistence.
struct EvalResult {
  std::size_t index = 0;       ///< job index (expansion order)
  std::string scenario;        ///< ScenarioSpec::name
  core::ModelVariant variant = core::ModelVariant::kSymmetric;
  double n = 0.0;              ///< chip budget in BCEs
  std::string app;             ///< application label
  std::string growth;          ///< growth-function label
  std::string topology = "-";  ///< interconnect label, "-" for Eqs. 4/5
  double r = 0.0;              ///< small/uniform core size
  double rl = 0.0;             ///< large-core size (0 for symmetric)
  bool feasible = false;       ///< false: small cores don't fit (Eq. 5/7)
  double cores = 0.0;          ///< total core count (0 when infeasible)
  double speedup = 0.0;        ///< predicted speedup (0 when infeasible)
  bool from_cache = false;     ///< served by the memo cache
};

/// Cost axis for Pareto-style comparisons of results (the speedup axis
/// is always EvalResult::speedup).  Lives here rather than in report so
/// the search layer can name it without depending on presentation code.
enum class CostMetric {
  kCoreArea,   ///< area of the largest core, max(r, rl), in BCEs
  kCoreCount,  ///< total number of cores on the chip
};

/// Cost under `metric` of a design with core sizes `r` and `rl` and
/// `cores` cores: the one definition of each metric.  The archive's
/// column scans call this form on raw columns.
inline double cost_of(CostMetric metric, double r, double rl,
                      double cores) noexcept {
  switch (metric) {
    case CostMetric::kCoreArea: return std::max(r, rl);
    case CostMetric::kCoreCount: return cores;
  }
  // A metric without a case fails loudly, never ranks designs as free.
  util::unreachable("cost_of: unhandled CostMetric");
}

/// Cost of one (feasible) result under `metric`.
inline double cost_of(const EvalResult& result, CostMetric metric) noexcept {
  return cost_of(metric, result.r, result.rl, result.cores);
}

/// The metric explore_cli's --cost-metric and the server's `pareto`
/// name ("area" | "cores"); std::nullopt for any other text.
std::optional<CostMetric> parse_cost_metric(std::string_view name) noexcept;
/// The cost axis as the Pareto titles name it: "core area" | "core count".
std::string_view cost_metric_label(CostMetric metric) noexcept;

/// Evaluates one job into a result — the per-job path inside
/// ExploreEngine::run, exposed for callers that already hold their own
/// threads: ExploreEngine::run is not reentrant (the thread team is one
/// shared resource).  The query server's session workers evaluate
/// off-archive what-if points through it with no cache
/// (`evaluate_job(job, nullptr, false)`); the server keeps its own
/// delta of live answers.  With `use_cache` the outcome is memoized (and
/// served) via `cache`, which is thread-safe; `cache` may be null only
/// when `use_cache` is false.
EvalResult evaluate_job(const EvalJob& job, MemoCache* cache, bool use_cache);

/// cache_key over a job block: fills `keys[i] = cache_key(jobs[i].request)`.
/// Kept only for perfbench/tool/replay.cpp.
void cache_keys(std::span<const EvalJob> jobs, std::span<CacheKey> keys);

/// Reusable per-worker scratch for evaluate_jobs: the SoA batch planes
/// plus the keying/miss-filter staging.  Transient working state; hold
/// one per worker thread to amortize allocations across claim blocks
/// (ExploreEngine keeps one per team worker across runs).
struct BatchScratch {
  core::EvalBatch batch;
  std::vector<CacheKey> keys;
  std::vector<EvalOutcome> outcomes;
  std::vector<std::uint8_t> hits;
  std::vector<const core::EvalRequest*> miss_requests;
  std::vector<std::size_t> miss_slots;
  std::vector<std::optional<core::DesignPoint>> miss_points;
  std::vector<CacheKey> miss_keys;
  std::vector<EvalOutcome> miss_outcomes;
};

/// Batch counterpart of evaluate_job — the path ExploreEngine::run's
/// workers take for each claimed block: key the whole block via
/// cache_keys, serve hits, and push the misses through one
/// core::evaluate_batch call.  `results[i]` receives jobs[i]'s result.
/// Semantically identical to evaluate_job per element, with one caveat:
/// duplicate design points *within one block* are all treated as misses
/// (the block is keyed before any insert), where the sequential loop
/// could serve the second from the first's insert.  ExploreEngine::run
/// re-derives every `from_cache` flag from job order once its workers
/// finish, so neither this nor cross-block timing reaches its callers.
void evaluate_jobs(std::span<const EvalJob> jobs,
                   std::span<EvalResult> results, MemoCache* cache,
                   bool use_cache, BatchScratch& scratch);

/// Engine configuration.
struct EngineOptions {
  int threads = 0;             ///< worker count; 0 = hardware concurrency
  bool use_cache = true;       ///< memoize (only replay.cpp still does)
};

/// Reusable exploration engine: the thread team and the memo cache
/// persist across run() calls, so a long-lived engine serves successive
/// (possibly overlapping) scenarios with warm workers and a warm cache.
class ExploreEngine {
 public:
  explicit ExploreEngine(EngineOptions options = {});

  /// Expands `spec` and evaluates every job.  Results are ordered by job
  /// index regardless of thread count.
  std::vector<EvalResult> run(const ScenarioSpec& spec);

  /// Evaluates a pre-expanded job list (jobs[i].index must equal i).
  std::vector<EvalResult> run(const std::vector<EvalJob>& jobs);

  /// Same, writing into caller-owned result slots (`results.size()` must
  /// equal `jobs.size()`).  A chunked sweep that reuses one results
  /// buffer across calls skips the per-chunk vector construction — and,
  /// since EvalResult carries strings, re-fills slots whose heap
  /// capacity is already in place.
  void run(std::span<const EvalJob> jobs, std::span<EvalResult> results);

  /// Worker count actually in use.
  int threads() const noexcept { return team_.size(); }

  /// The engine's thread team, for parallel work between runs (the
  /// sweep pipeline, report rendering, archive encoding), so one
  /// --threads setting governs a whole sweep.  Not usable while run() is
  /// in progress.
  runtime::ThreadTeam& team() noexcept { return team_; }

  /// Evaluates one block of jobs on team worker `tid`: evaluate_jobs
  /// through the engine's cache settings, on the scratch the engine
  /// keeps for that worker across runs.  What run()'s workers do per
  /// claimed block, for a region of the caller's own on team()
  /// (search::run_sweep).  Each result takes its job's index; unlike
  /// run(), nothing re-derives `from_cache` across blocks, so a caller
  /// whose jobs repeat a design point gets timing-dependent flags.
  void evaluate_block(int tid, std::span<const EvalJob> jobs,
                      std::span<EvalResult> results);

  /// The memo cache (hit/miss stats, size) — cumulative across runs.
  /// Kept only for perfbench/tool/replay.cpp, as is the mutable form
  /// search::RunLog::warm fills.
  const MemoCache& cache() const noexcept { return cache_; }
  MemoCache& cache() noexcept { return cache_; }

 private:
  EngineOptions options_;
  runtime::ThreadTeam team_;
  std::vector<BatchScratch> scratch_;  ///< one per team worker
  MemoCache cache_;
};

}  // namespace mergescale::explore
