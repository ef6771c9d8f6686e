#include "explore/engine.hpp"

#include <gtest/gtest.h>

#include "core/app_params.hpp"
#include "core/reduction_model.hpp"

namespace mergescale::explore {
namespace {

using core::ModelVariant;

ScenarioSpec mixed_spec() {
  ScenarioSpec spec;
  spec.name = "engine-test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic()};
  spec.variants = {ModelVariant::kSymmetric, ModelVariant::kAsymmetric,
                   ModelVariant::kSymmetricComm};
  return spec;
}

void expect_same_results(const std::vector<EvalResult>& a,
                         const std::vector<EvalResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].variant, b[i].variant);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].growth, b[i].growth);
    EXPECT_EQ(a[i].topology, b[i].topology);
    EXPECT_EQ(a[i].r, b[i].r);
    EXPECT_EQ(a[i].rl, b[i].rl);
    EXPECT_EQ(a[i].feasible, b[i].feasible);
    EXPECT_DOUBLE_EQ(a[i].cores, b[i].cores);
    EXPECT_DOUBLE_EQ(a[i].speedup, b[i].speedup);
  }
}

TEST(ExploreEngine, MatchesDirectModelEvaluation) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetric};
  ExploreEngine engine({.threads = 2});
  const auto results = engine.run(spec);
  const auto sizes = core::power_of_two_sizes(256.0);
  ASSERT_EQ(results.size(), sizes.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].feasible);
    EXPECT_DOUBLE_EQ(results[i].r, sizes[i]);
    EXPECT_DOUBLE_EQ(
        results[i].speedup,
        core::speedup_symmetric(core::ChipConfig{256.0}, spec.apps[0],
                                core::GrowthFunction::linear(), sizes[i]));
    EXPECT_DOUBLE_EQ(results[i].cores, 256.0 / sizes[i]);
  }
}

TEST(ExploreEngine, DeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = mixed_spec();
  for (int threads : {2, 4, 7}) {
    ExploreEngine one({.threads = 1});
    ExploreEngine many({.threads = threads});
    expect_same_results(one.run(spec), many.run(spec));
  }
}

TEST(ExploreEngine, CachedAndUncachedResultsAgree) {
  // A fresh sweep of distinct points runs without the cache: both ways
  // must give the same records, `from_cache` and `scenario` included.
  const ScenarioSpec spec = mixed_spec();
  ExploreEngine cached({.threads = 3, .use_cache = true});
  ExploreEngine uncached({.threads = 3, .use_cache = false});
  const std::vector<EvalResult> on = cached.run(spec);
  const std::vector<EvalResult> off = uncached.run(spec);
  expect_same_results(on, off);
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].scenario, off[i].scenario);
    EXPECT_EQ(on[i].from_cache, off[i].from_cache);
    EXPECT_FALSE(on[i].from_cache);
  }
  EXPECT_EQ(uncached.cache().size(), 0u);
  EXPECT_EQ(cached.cache().size(), on.size());
}

TEST(ExploreEngine, RepeatedRunIsServedFromCache) {
  const ScenarioSpec spec = mixed_spec();
  ExploreEngine engine({.threads = 2});
  const auto cold = engine.run(spec);
  const auto warm = engine.run(spec);
  expect_same_results(cold, warm);
  for (const auto& result : cold) EXPECT_FALSE(result.from_cache);
  for (const auto& result : warm) EXPECT_TRUE(result.from_cache);
  const auto stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, warm.size());
  EXPECT_EQ(stats.misses, cold.size());
}

TEST(ExploreEngine, OverlappingScenariosShareCacheEntries) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetric};
  ExploreEngine engine({.threads = 2});
  engine.run(spec);
  const std::size_t entries = engine.cache().size();

  // A differently-named scenario over the same grid re-uses every entry.
  spec.name = "overlap";
  const auto warm = engine.run(spec);
  EXPECT_EQ(engine.cache().size(), entries);
  for (const auto& result : warm) EXPECT_TRUE(result.from_cache);
}

TEST(ExploreEngine, MarksInfeasibleAsymmetricPoints) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kAsymmetric};
  spec.small_core_sizes = {64.0};
  ExploreEngine engine({.threads = 2});
  const auto results = engine.run(spec);
  ASSERT_EQ(results.size(), 9u);  // rl = 1..256
  for (const auto& result : results) {
    const bool fits =
        result.rl == 256.0 || 64.0 <= 256.0 - result.rl;
    EXPECT_EQ(result.feasible, fits) << "rl=" << result.rl;
    if (!result.feasible) {
      EXPECT_EQ(result.speedup, 0.0);
      EXPECT_EQ(result.cores, 0.0);
    }
  }
}

TEST(EvaluateJobs, MatchesThePerJobPathWithoutACache) {
  const auto jobs = mixed_spec().expand();
  ASSERT_FALSE(jobs.empty());
  std::vector<EvalResult> batch(jobs.size());
  BatchScratch scratch;
  evaluate_jobs(jobs, batch, nullptr, /*use_cache=*/false, scratch);
  std::vector<EvalResult> sequential;
  for (const auto& job : jobs) {
    sequential.push_back(evaluate_job(job, nullptr, /*use_cache=*/false));
  }
  expect_same_results(batch, sequential);
}

TEST(EvaluateJobs, ServesRepeatsFromTheCacheAndKeysTheBlock) {
  const auto jobs = mixed_spec().expand();
  MemoCache cache;
  BatchScratch scratch;
  std::vector<EvalResult> cold(jobs.size());
  evaluate_jobs(jobs, cold, &cache, /*use_cache=*/true, scratch);
  EXPECT_GT(cache.size(), 0u);

  std::vector<EvalResult> warm(jobs.size());
  evaluate_jobs(jobs, warm, &cache, /*use_cache=*/true, scratch);
  expect_same_results(cold, warm);
  for (const auto& result : warm) EXPECT_TRUE(result.from_cache);

  // The block keying the batch path relies on matches the scalar keys.
  std::vector<CacheKey> keys(jobs.size());
  cache_keys(jobs, keys);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(keys[i], cache_key(jobs[i].request)) << "job " << i;
  }
}

TEST(ExploreEngine, EmptyJobListYieldsEmptyResults) {
  ExploreEngine engine({.threads = 2});
  EXPECT_TRUE(engine.run(std::vector<EvalJob>{}).empty());
}

TEST(ExploreEngine, RejectsMisindexedJobsInDebugBuilds) {
  // The jobs[i].index == i pre-scan is debug-only: every producer
  // (ScenarioSpec::expand, the search funnel) renumbers by construction,
  // and an O(n) verification per dispatch is real latency on a
  // million-job submission.  Release builds trust the contract.
  ScenarioSpec spec;
  spec.apps = {core::presets::kmeans()};
  auto jobs = spec.expand();
  jobs.front().index = 5;
  ExploreEngine engine({.threads = 1});
#ifndef NDEBUG
  EXPECT_THROW(engine.run(jobs), std::invalid_argument);
#else
  EXPECT_NO_THROW(engine.run(jobs));
#endif
}

TEST(ExploreEngine, FreshnessFollowsJobOrderNotWorkerTiming) {
  // Every point twice in a row (duplicates inside one claim block), then
  // all of them again in reverse (duplicates across blocks that workers
  // race on): only each point's first position may report a miss.
  const std::vector<EvalJob> points = mixed_spec().expand();
  std::vector<EvalJob> jobs;
  for (const EvalJob& job : points) {
    jobs.push_back(job);
    jobs.push_back(job);
  }
  jobs.insert(jobs.end(), points.rbegin(), points.rend());
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].index = i;
  for (int round = 0; round < 20; ++round) {
    ExploreEngine engine({.threads = 4});
    const auto results = engine.run(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].from_cache, !(i < 2 * points.size() && i % 2 == 0))
          << "round " << round << ", job " << i;
    }
    for (const auto& result : engine.run(jobs)) EXPECT_TRUE(result.from_cache);
  }
}

TEST(ExploreEngine, ClearCacheForcesReevaluation) {
  const ScenarioSpec spec = mixed_spec();
  ExploreEngine engine({.threads = 2});
  engine.run(spec);
  engine.clear_cache();
  const auto rerun = engine.run(spec);
  for (const auto& result : rerun) EXPECT_FALSE(result.from_cache);
}

}  // namespace
}  // namespace mergescale::explore
