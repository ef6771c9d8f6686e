#include "explore/memo_cache.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/app_params.hpp"
#include "core/comm_model.hpp"
#include "explore/scenario.hpp"

namespace mergescale::explore {
namespace {

core::EvalRequest sample_request() {
  core::EvalRequest request;
  request.app = core::presets::kmeans();
  request.r = 4.0;
  return request;
}

TEST(CacheKey, IdenticalRequestsShareAKey) {
  EXPECT_EQ(cache_key(sample_request()), cache_key(sample_request()));
}

TEST(CacheKey, IgnoresTheAppLabel) {
  core::EvalRequest a = sample_request();
  core::EvalRequest b = sample_request();
  b.app.name = "renamed";
  EXPECT_EQ(cache_key(a), cache_key(b));
}

TEST(CacheKey, DistinguishesNumericFields) {
  const core::EvalRequest base = sample_request();
  core::EvalRequest other = base;
  other.r = 8.0;
  EXPECT_FALSE(cache_key(base) == cache_key(other));

  other = base;
  other.app.f = 0.95;
  EXPECT_FALSE(cache_key(base) == cache_key(other));

  other = base;
  other.chip.n = 128.0;
  EXPECT_FALSE(cache_key(base) == cache_key(other));
}

TEST(CacheKey, DistinguishesVariantAndGrowth) {
  const core::EvalRequest base = sample_request();
  core::EvalRequest other = base;
  other.variant = core::ModelVariant::kAsymmetric;
  EXPECT_FALSE(cache_key(base) == cache_key(other));

  other = base;
  other.growth = core::GrowthFunction::logarithmic();
  EXPECT_FALSE(cache_key(base) == cache_key(other));

  other = base;
  other.growth = core::GrowthFunction::superlinear(1.5);
  core::EvalRequest other2 = base;
  other2.growth = core::GrowthFunction::superlinear(2.0);
  EXPECT_FALSE(cache_key(other) == cache_key(other2));
}

TEST(CacheKey, DistinguishesCustomGrowthsByName) {
  core::EvalRequest a = sample_request();
  a.growth = core::GrowthFunction::custom("halves",
                                          [](double nc) { return nc / 2 - 0.5; });
  core::EvalRequest b = sample_request();
  b.growth = core::GrowthFunction::custom("thirds",
                                          [](double nc) { return nc / 3 - 1.0 / 3; });
  EXPECT_FALSE(cache_key(a) == cache_key(b));
}

// Regression: the key used to fold all names into one 64-bit hash with a
// "|" separator, so name tuples that concatenate identically — or collide
// in the hash — were conflated.  Keys now carry interned name IDs that
// the interner pins to verbatim names by full-string comparison, which
// preserves the guarantee without per-evaluation string work.
TEST(CacheKey, SeparatorInjectionInCustomNamesCannotCollide) {
  core::EvalRequest a = sample_request();
  a.growth = core::GrowthFunction::custom("a|b", [](double nc) { return nc - 1; });
  a.comm_growth = core::GrowthFunction::custom("c", [](double nc) { return nc - 1; });
  core::EvalRequest b = sample_request();
  b.growth = core::GrowthFunction::custom("a", [](double nc) { return nc - 1; });
  b.comm_growth = core::GrowthFunction::custom("b|c", [](double nc) { return nc - 1; });
  // Both requests must target a comm variant for comm_growth to matter.
  a.variant = core::ModelVariant::kSymmetricComm;
  b.variant = core::ModelVariant::kSymmetricComm;
  EXPECT_FALSE(cache_key(a) == cache_key(b));

  MemoCache cache;
  cache.insert(cache_key(a), EvalOutcome{true, {4.0, 0.0, 1.0}});
  cache.insert(cache_key(b), EvalOutcome{true, {4.0, 0.0, 2.0}});
  EXPECT_EQ(cache.size(), 2u);
  EvalOutcome out;
  ASSERT_TRUE(cache.lookup(cache_key(a), &out));
  EXPECT_DOUBLE_EQ(out.point.speedup, 1.0);
}

// Regression: every topology maps to a *custom* growth function (kind and
// exponent identical across topologies), so distinguishing them leans
// entirely on the comm-growth name reaching the key intact.
TEST(CacheKey, DistinguishesTopologiesUnderCommVariants) {
  core::EvalRequest mesh = sample_request();
  mesh.variant = core::ModelVariant::kSymmetricComm;
  mesh.comm_growth = core::comm_growth(noc::Topology::kMesh2D);
  core::EvalRequest torus = mesh;
  torus.comm_growth = core::comm_growth(noc::Topology::kTorus2D);
  EXPECT_FALSE(cache_key(mesh) == cache_key(torus));

  MemoCache cache;
  cache.insert(cache_key(mesh), EvalOutcome{true, {4.0, 0.0, 10.0}});
  EvalOutcome out;
  EXPECT_FALSE(cache.lookup(cache_key(torus), &out));
}

// Fields a variant does not read are normalized out of its key, so the
// same logical design point is shared across scenarios that only differ
// in unused axes.
TEST(CacheKey, NormalizesFieldsTheVariantIgnores) {
  core::EvalRequest a = sample_request();  // kSymmetric
  core::EvalRequest b = sample_request();
  b.comm_growth = core::comm_growth(noc::Topology::kBus);
  b.comp_share = 0.25;
  b.rl = 64.0;  // symmetric evaluation never reads rl
  EXPECT_EQ(cache_key(a), cache_key(b));

  // Under a comm variant the same fields become significant.
  a.variant = core::ModelVariant::kSymmetricComm;
  b.variant = core::ModelVariant::kSymmetricComm;
  EXPECT_FALSE(cache_key(a) == cache_key(b));
}

TEST(CacheKey, BatchOverloadMatchesTheScalarKey) {
  std::vector<core::EvalRequest> requests;
  for (double r : {1.0, 2.0, 4.0, 8.0}) {
    core::EvalRequest request = sample_request();
    request.r = r;
    requests.push_back(request);
    request.variant = core::ModelVariant::kSymmetricComm;
    requests.push_back(request);
  }
  std::vector<CacheKey> keys(requests.size());
  cache_keys(requests, keys);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(keys[i], cache_key(requests[i])) << "request " << i;
  }
}

TEST(CacheKey, BatchOverloadRejectsMismatchedSpans) {
  std::vector<core::EvalRequest> requests(2);
  std::vector<CacheKey> keys(3);
  EXPECT_THROW(cache_keys(requests, keys), std::invalid_argument);
}

TEST(MemoCache, LookupAfterInsertRoundTrips) {
  MemoCache cache(4);
  const CacheKey key = cache_key(sample_request());
  EvalOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));

  cache.insert(key, EvalOutcome{true, {4.0, 0.0, 37.5}});
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_TRUE(out.feasible);
  EXPECT_DOUBLE_EQ(out.point.speedup, 37.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, CountsHitsAndMisses) {
  MemoCache cache(2);
  const CacheKey key = cache_key(sample_request());
  EvalOutcome out;
  cache.lookup(key, &out);
  cache.insert(key, EvalOutcome{});
  cache.lookup(key, &out);
  cache.lookup(key, &out);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(MemoCache, ClearDropsEntriesAndResetsStats) {
  MemoCache cache;
  const CacheKey key = cache_key(sample_request());
  cache.insert(key, EvalOutcome{});
  EvalOutcome out;
  cache.lookup(key, &out);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_FALSE(cache.lookup(key, &out));
}

TEST(MemoCache, InsertReportsWhetherTheKeyWasNew) {
  // Regression: RunLog::warm used a lookup+insert double probe to count
  // unique records; insert's return value is the single-probe contract
  // it relies on (true exactly when the key filled an empty slot).
  MemoCache cache(2);
  const CacheKey key = cache_key(sample_request());
  EXPECT_TRUE(cache.insert(key, EvalOutcome{}));
  EXPECT_FALSE(cache.insert(key, EvalOutcome{}));  // overwrite, not new
  EXPECT_EQ(cache.size(), 1u);

  core::EvalRequest other = sample_request();
  other.r = other.r + 1.0;
  EXPECT_TRUE(cache.insert(cache_key(other), EvalOutcome{}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MemoCache, SpreadsDistinctKeysAcrossEntries) {
  MemoCache cache(8);
  EXPECT_EQ(cache.shard_count(), 8u);
  core::EvalRequest request = sample_request();
  for (double r = 1.0; r <= 64.0; r += 1.0) {
    request.r = r;
    cache.insert(cache_key(request), EvalOutcome{});
  }
  EXPECT_EQ(cache.size(), 64u);
}

// Regression: each hash lane used to be a bare `(lane ^ word) * odd`,
// which never carries a word's high bits down, and core sizes that are
// powers of two differ only in their exponent bits.  The CI anneal grid's
// 6,144 distinct keys hashed to 6,080 values.
TEST(CacheKeyHash, SeparatesEveryKeyOfTheAnnealGrid) {
  ScenarioConfig grid;
  grid.apps = "kmeans,fuzzy,hop";
  grid.budgets = "64,128,256,512";
  grid.growths = "linear";
  grid.variants = "asymmetric";
  grid.topologies = "mesh";
  grid.small_cores = "1,2,3,4,5,6,7,8";
  for (int size = 1; size <= 64; ++size) {
    grid.sizes += (size > 1 ? "," : "") + std::to_string(size);
  }
  const ScenarioSpec spec = from_config(to_config(grid), "anneal-grid");
  std::unordered_set<CacheKey, CacheKeyHash> keys;
  std::unordered_set<std::size_t> hashes;
  for (const EvalJob& job : spec.expand()) {
    const CacheKey key = cache_key(job.request);
    if (keys.insert(key).second) hashes.insert(CacheKeyHash{}(key));
  }
  EXPECT_EQ(keys.size(), 6144u);
  EXPECT_EQ(hashes.size(), keys.size());
}

}  // namespace
}  // namespace mergescale::explore
