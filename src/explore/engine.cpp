#include "explore/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace mergescale::explore {

namespace {

/// Wraps core::evaluate, demoting a non-finite speedup to infeasible: a
/// value no design comparison can use, and one the run log loads back
/// as infeasible — demoting at evaluation time keeps live runs and
/// log-resumed replays identical.
EvalOutcome to_outcome(const std::optional<core::DesignPoint>& point) {
  if (!point || !std::isfinite(point->speedup)) return EvalOutcome{};
  return EvalOutcome{true, *point};
}

EvalOutcome evaluate_outcome(const core::EvalRequest& request) {
  return to_outcome(core::evaluate(request));
}

/// Applies a cached or freshly evaluated outcome to a result slot.
void apply_outcome(const EvalJob& job, const EvalOutcome& outcome,
                   EvalResult& result) {
  result.feasible = outcome.feasible;
  if (outcome.feasible) {
    result.speedup = outcome.point.speedup;
    result.cores =
        core::is_asymmetric_variant(job.request.variant)
            ? job.request.chip.cores_asymmetric(job.request.rl, job.request.r)
            : job.request.chip.cores_symmetric(job.request.r);
  } else {
    // Explicit zeros: result slots may be reused across calls (the
    // span-based run), so infeasible points must not inherit a previous
    // occupant's numbers.
    result.speedup = 0.0;
    result.cores = 0.0;
  }
}

/// Jobs claimed per queue pop — amortizes the atomic increment across the
/// very cheap analytical evaluations, and (since the claim block is also
/// the evaluate_batch unit) gives the SoA kernels lanes to vectorize
/// over.  Scaled to the batch: large sweeps claim up to kMaxClaimBlock at
/// a time, while a batch small relative to the team (an annealing front,
/// a tiny generation) claims little enough that every worker gets a share
/// instead of one worker draining the whole queue in a single pop.
constexpr std::size_t kMaxClaimBlock = 256;

std::size_t claim_block(std::size_t jobs, int team_size) {
  const std::size_t per_worker =
      jobs / (static_cast<std::size_t>(team_size) * 4);
  return std::clamp<std::size_t>(per_worker, 1, kMaxClaimBlock);
}

/// Makes `from_cache` a function of job order instead of worker timing.
/// Workers claim blocks concurrently, so when one design point appears
/// at two positions, whichever copy looks the cache up first misses and
/// the other may hit — or both miss when they share a block.  A miss
/// proves the point was not cached before the run (entries are never
/// erased), so the point's first job is marked fresh and every later
/// copy cached.  Points whose every job hit were cached beforehand.
/// Callers that persist only fresh results (explore_cli, sharded sweeps)
/// thereby record the same positions on every run.
void settle_freshness(std::span<const EvalJob> jobs,
                      std::span<EvalResult> results) {
  struct Slot {
    std::size_t hash = 0;
    std::size_t first = 0;  ///< first job's position + 1; 0 when empty
  };
  const std::size_t mask =
      std::bit_ceil(std::max<std::size_t>(16, jobs.size() * 2)) - 1;
  std::vector<Slot> slots(mask + 1);
  std::vector<std::uint8_t> missed(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CacheKey key = cache_key(jobs[i].request);
    const std::size_t hash = CacheKeyHash{}(key);
    for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
      Slot& slot = slots[at];
      if (slot.first == 0) {
        slot = {hash, i + 1};
        missed[i] = results[i].from_cache ? 0 : 1;
        break;
      }
      if (slot.hash == hash && cache_key(jobs[slot.first - 1].request) == key) {
        if (!results[i].from_cache) missed[slot.first - 1] = 1;
        results[i].from_cache = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (missed[i] != 0) results[i].from_cache = false;
  }
}

}  // namespace

EvalResult evaluate_job(const EvalJob& job, MemoCache* cache, bool use_cache) {
  EvalResult result;
  result.index = job.index;
  result.scenario = job.scenario;
  result.variant = job.request.variant;
  result.n = job.request.chip.n;
  result.app = job.request.app.name;
  result.growth = job.request.growth.name();
  result.topology = job.topology;
  result.r = job.request.r;
  result.rl = job.request.rl;

  EvalOutcome outcome;
  if (use_cache) {
    const CacheKey key = cache_key(job.request);
    if (cache->lookup(key, &outcome)) {
      result.from_cache = true;
    } else {
      outcome = evaluate_outcome(job.request);
      cache->insert(key, outcome);
    }
  } else {
    outcome = evaluate_outcome(job.request);
  }

  apply_outcome(job, outcome, result);
  return result;
}

void cache_keys(std::span<const EvalJob> jobs, std::span<CacheKey> keys) {
  MS_CHECK(keys.size() == jobs.size(), "cache_keys needs one key slot per job");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    keys[i] = cache_key(jobs[i].request);
  }
}

void evaluate_jobs(std::span<const EvalJob> jobs,
                   std::span<EvalResult> results, MemoCache* cache,
                   bool use_cache, BatchScratch& scratch) {
  MS_CHECK(results.size() == jobs.size(),
           "evaluate_jobs needs one result slot per job");
  scratch.miss_requests.clear();
  scratch.miss_slots.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const EvalJob& job = jobs[i];
    EvalResult& result = results[i];
    result.index = job.index;
    // Strings assign only when they differ: result slots are routinely
    // reused across claim blocks (the span-based run), where the labels
    // are stable and a compare is far cheaper than a copy.
    if (result.scenario != job.scenario) result.scenario = job.scenario;
    result.variant = job.request.variant;
    result.n = job.request.chip.n;
    if (result.app != job.request.app.name) result.app = job.request.app.name;
    if (result.growth != job.request.growth.name()) {
      result.growth = job.request.growth.name();
    }
    if (result.topology != job.topology) result.topology = job.topology;
    result.r = job.request.r;
    result.rl = job.request.rl;
    result.from_cache = false;
  }

  if (use_cache) {
    scratch.keys.resize(jobs.size());
    cache_keys(jobs, scratch.keys);
    scratch.outcomes.resize(jobs.size());
    scratch.hits.resize(jobs.size());
    cache->lookup_block(scratch.keys, scratch.outcomes, scratch.hits);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (scratch.hits[i]) {
        results[i].from_cache = true;
        apply_outcome(jobs[i], scratch.outcomes[i], results[i]);
      } else {
        scratch.miss_requests.push_back(&jobs[i].request);
        scratch.miss_slots.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      scratch.miss_requests.push_back(&jobs[i].request);
      scratch.miss_slots.push_back(i);
    }
  }

  scratch.miss_points.assign(scratch.miss_requests.size(), std::nullopt);
  core::evaluate_batch(std::span<const core::EvalRequest* const>(
                           scratch.miss_requests),
                       scratch.miss_points, scratch.batch);
  scratch.miss_keys.clear();
  scratch.miss_outcomes.clear();
  for (std::size_t m = 0; m < scratch.miss_slots.size(); ++m) {
    const std::size_t i = scratch.miss_slots[m];
    const EvalOutcome outcome = to_outcome(scratch.miss_points[m]);
    if (use_cache) {
      scratch.miss_keys.push_back(scratch.keys[i]);
      scratch.miss_outcomes.push_back(outcome);
    }
    apply_outcome(jobs[i], outcome, results[i]);
  }
  if (use_cache && !scratch.miss_keys.empty()) {
    cache->insert_block(scratch.miss_keys, scratch.miss_outcomes);
  }
}

std::optional<CostMetric> parse_cost_metric(std::string_view name) noexcept {
  if (name == "area") return CostMetric::kCoreArea;
  if (name == "cores") return CostMetric::kCoreCount;
  return std::nullopt;
}

std::string_view cost_metric_label(CostMetric metric) noexcept {
  return metric == CostMetric::kCoreArea ? "core area" : "core count";
}

ExploreEngine::ExploreEngine(EngineOptions options)
    : options_(options),
      team_(runtime::ThreadTeam::resolve_size(options.threads)),
      scratch_(static_cast<std::size_t>(team_.size())) {}

std::vector<EvalResult> ExploreEngine::run(const ScenarioSpec& spec) {
  return run(spec.expand());
}

std::vector<EvalResult> ExploreEngine::run(const std::vector<EvalJob>& jobs) {
  std::vector<EvalResult> results(jobs.size());
  run(std::span(jobs), std::span(results));
  return results;
}

void ExploreEngine::run(std::span<const EvalJob> jobs,
                        std::span<EvalResult> results) {
  MS_CHECK(results.size() == jobs.size(),
           "run needs one result slot per job");
#ifndef NDEBUG
  // The index contract is established by ScenarioSpec::expand and by the
  // search funnel's renumbering; an O(n) re-verification per dispatch is
  // debug-only so a million-job submission does not pay a full pre-scan
  // before the first evaluation starts.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    MS_CHECK(jobs[i].index == i, "job indices must match their positions");
  }
#endif
  if (jobs.empty()) return;

  const std::size_t block = claim_block(jobs.size(), team_.size());
  std::atomic<std::size_t> next{0};
  team_.run([&](int tid, int /*team_size*/) {
    for (;;) {
      const std::size_t begin = next.fetch_add(block);
      if (begin >= jobs.size()) break;
      const std::size_t end = std::min(begin + block, jobs.size());
      evaluate_block(tid, jobs.subspan(begin, end - begin),
                     results.subspan(begin, end - begin));
    }
  });
  if (options_.use_cache) settle_freshness(jobs, results);
}

void ExploreEngine::evaluate_block(int tid, std::span<const EvalJob> jobs,
                                   std::span<EvalResult> results) {
  evaluate_jobs(jobs, results, &cache_, options_.use_cache,
                scratch_[static_cast<std::size_t>(tid)]);
}

}  // namespace mergescale::explore
