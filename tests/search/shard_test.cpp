#include "search/space.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/app_params.hpp"
#include "explore/engine.hpp"
#include "search/run_log.hpp"

namespace mergescale::search {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_shard_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

explore::ScenarioSpec sample_spec() {
  explore::ScenarioSpec spec;
  spec.name = "shard-test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm};
  return spec;
}

void expect_equal(const explore::EvalResult& a, const explore::EvalResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_DOUBLE_EQ(a.n, b.n);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.growth, b.growth);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_DOUBLE_EQ(a.r, b.r);
  EXPECT_DOUBLE_EQ(a.rl, b.rl);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_DOUBLE_EQ(a.cores, b.cores);
  EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
}

/// What a sharded explore_cli process does for its slice: enumerate the
/// shard's flat range space-ordered, evaluate through a (per-process)
/// engine, and append every fresh result with its global flat index.
void sweep_shard(const SearchSpace& space, const ShardRange& range,
                 explore::ExploreEngine& engine, RunLog* log) {
  constexpr std::uint64_t kChunk = 64;
  for (std::uint64_t begin = range.begin; begin < range.end;
       begin += kChunk) {
    const std::uint64_t end = std::min(begin + kChunk, range.end);
    std::vector<explore::EvalJob> slice;
    std::vector<std::uint64_t> flats;
    for (std::uint64_t flat = begin; flat < end; ++flat) {
      explore::EvalJob job;
      if (!space.job_at(space.decode(flat), &job)) continue;
      job.index = slice.size();
      slice.push_back(std::move(job));
      flats.push_back(flat);
    }
    std::vector<explore::EvalResult> part = engine.run(slice);
    for (std::size_t i = 0; i < part.size(); ++i) {
      part[i].index = static_cast<std::size_t>(flats[i]);
      if (!part[i].from_cache) log->append(part[i]);
    }
  }
  log->flush();
}

TEST(ShardPlan, RangesTileTheSpaceExactlyAndBalanced) {
  for (const std::uint64_t size : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     std::size_t{8}, std::size_t{130}}) {
      const ShardPlan plan(size, shards);
      std::uint64_t covered = 0;
      std::uint64_t cursor = 0;
      std::uint64_t smallest = size + 1;
      std::uint64_t largest = 0;
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const ShardRange range = plan.range(shard);
        EXPECT_EQ(range.begin, cursor);  // contiguous, in order, no gaps
        cursor = range.end;
        covered += range.size();
        smallest = std::min(smallest, range.size());
        largest = std::max(largest, range.size());
      }
      EXPECT_EQ(covered, size);
      EXPECT_EQ(cursor, size);
      EXPECT_LE(largest - smallest, 1u);  // balanced to within one point
    }
  }
}

TEST(ShardPlan, ShardOfInvertsRange) {
  const ShardPlan plan(1000, 7);
  for (std::uint64_t flat = 0; flat < 1000; ++flat) {
    const std::size_t shard = plan.shard_of(flat);
    const ShardRange range = plan.range(shard);
    EXPECT_GE(flat, range.begin);
    EXPECT_LT(flat, range.end);
  }
}

TEST(ShardPlan, RejectsZeroShards) {
  EXPECT_THROW(ShardPlan(10, 0), std::invalid_argument);
}

TEST(ShardPlan, SeedsAreDecorrelatedButDeterministic) {
  std::set<std::uint64_t> seeds;
  for (std::size_t shard = 0; shard < 16; ++shard) {
    const std::uint64_t derived = ShardPlan::shard_seed(42, shard, 16);
    EXPECT_EQ(derived, ShardPlan::shard_seed(42, shard, 16));
    seeds.insert(derived);
  }
  EXPECT_EQ(seeds.size(), 16u);  // distinct across sibling shards
  // A different partition of the same seed is a different stream: the
  // merged unions of 4-shard and 8-shard runs must not double-walk.
  EXPECT_NE(ShardPlan::shard_seed(42, 0, 4), ShardPlan::shard_seed(42, 0, 8));
}

TEST(ShardSpecParse, AcceptsWellFormedAndRejectsTheRest) {
  const ShardSpec spec = parse_shard_spec("2/4");
  EXPECT_EQ(spec.index, 2u);
  EXPECT_EQ(spec.count, 4u);
  for (const char* bad : {"", "3", "/4", "2/", "4/4", "5/4", "-1/4", "a/b",
                          "1/4x", "0/0"}) {
    EXPECT_THROW(parse_shard_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardConfigToken, StripRemovesExactlyTheToken) {
  EXPECT_EQ(explore::shard_config_token(4), ";shards=4");
  EXPECT_EQ(explore::strip_shard_config("apps=a;seed=1;shards=4"),
            "apps=a;seed=1");
  EXPECT_EQ(explore::strip_shard_config("apps=a;shards=4;seed=1"),
            "apps=a;seed=1");
  EXPECT_EQ(explore::strip_shard_config("apps=a;seed=1"), "apps=a;seed=1");
}

TEST_F(ShardTest, ShardLogsAreSeparateFilesUnionedByLoad) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  ASSERT_GE(results.size(), 4u);
  {
    RunLogOptions options{LogFormat::kBinary, 2};
    options.shard = 0;
    RunLog shard0(dir_, options);
    options.shard = 1;
    RunLog shard1(dir_, options);
    shard0.append(results[0]);
    shard0.append(results[1]);
    shard1.append(results[2]);
  }
  EXPECT_TRUE(std::filesystem::exists(
      RunLog::shard_binary_results_path(dir_, 0)));
  EXPECT_TRUE(std::filesystem::exists(
      RunLog::shard_binary_results_path(dir_, 1)));
  EXPECT_TRUE(RunLog::has_results(dir_));

  // load() unions shards in shard order; load_shard() isolates one.
  const auto all = RunLog::load(dir_);
  ASSERT_EQ(all.size(), 3u);
  expect_equal(all[0], results[0]);
  expect_equal(all[1], results[1]);
  expect_equal(all[2], results[2]);
  const auto only1 = RunLog::load_shard(dir_, 1);
  ASSERT_EQ(only1.size(), 1u);
  expect_equal(only1[0], results[2]);
  EXPECT_TRUE(RunLog::load_shard(dir_, 7).empty());
}

TEST_F(ShardTest, ShardUnionInvariant) {
  // The headline guarantee: a K-shard run — each shard a separate
  // process with its own cold cache, appending to its own file in one
  // shared directory — merged via compact() is record-identical, point
  // for point, to the single-process (1-shard) run of the same space.
  const explore::ScenarioSpec spec = sample_spec();
  const SearchSpace space(spec);
  const std::string merged_dir = dir_ + "/merged";
  const std::string reference_dir = dir_ + "/reference";

  constexpr std::size_t kShards = 4;
  const ShardPlan plan(space.size(), kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    explore::ExploreEngine engine;  // per-process cold cache
    RunLogOptions options{LogFormat::kBinary, 7};
    options.shard = shard;
    RunLog log(merged_dir, options);
    sweep_shard(space, plan.range(shard), engine, &log);
  }
  {
    explore::ExploreEngine engine;
    RunLogOptions options{LogFormat::kBinary, 7};
    options.shard = 0;
    RunLog log(reference_dir, options);
    sweep_shard(space, ShardPlan(space.size(), 1).range(0), engine, &log);
  }

  const auto merged = RunLog::compact(merged_dir);
  const auto reference = RunLog::compact(reference_dir);
  EXPECT_EQ(merged.kept, reference.kept);
  // Shard files are gone; exactly one unsharded log remains.
  EXPECT_FALSE(std::filesystem::exists(
      RunLog::shard_binary_results_path(merged_dir, 0)));
  const auto merged_records = RunLog::load(merged_dir);
  const auto reference_records = RunLog::load(reference_dir);
  ASSERT_EQ(merged_records.size(), reference_records.size());
  ASSERT_GT(merged_records.size(), 0u);
  for (std::size_t i = 0; i < merged_records.size(); ++i) {
    expect_equal(merged_records[i], reference_records[i]);
  }
}

TEST_F(ShardTest, MergeRefusesMismatchedConfigsAndStripsTheShardToken) {
  const std::string other_dir = dir_ + "/other";
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());

  RunLog::write_meta(dir_, "apps=a;seed=1;shards=2");
  {
    RunLogOptions options{LogFormat::kBinary, 1};
    options.shard = 0;
    RunLog log(dir_, options);
    log.append(results[0]);
  }

  // A source recorded under a different configuration is refused.
  RunLog::write_meta(other_dir, "apps=OTHER;seed=9;shards=2");
  {
    RunLogOptions options{LogFormat::kBinary, 1};
    options.shard = 1;
    RunLog log(other_dir, options);
    log.append(results[1]);
  }
  EXPECT_THROW(RunLog::merge(dir_, {other_dir}), std::runtime_error);
  // An unrecorded source (no meta.json) is refused too.
  const std::string unrecorded = dir_ + "/unrecorded";
  std::filesystem::create_directories(unrecorded);
  EXPECT_THROW(RunLog::merge(dir_, {unrecorded}), std::runtime_error);

  // Matching configs union; with strip_shard_token (the exhaustive
  // case) the merged meta drops the token so the directory resumes as
  // a single-process run.
  RunLog::write_meta(other_dir, "apps=a;seed=1;shards=2");
  const auto stats = RunLog::merge(dir_, {other_dir}, 256,
                                   /*strip_shard_token=*/true);
  EXPECT_EQ(stats.sources, 1u);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.kept, 2u);
  const auto meta = RunLog::read_meta(dir_);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(*meta, "apps=a;seed=1");
  const auto merged = RunLog::load(dir_);
  ASSERT_EQ(merged.size(), 2u);
  expect_equal(merged[0], results[0]);
  expect_equal(merged[1], results[1]);
}

TEST_F(ShardTest, InPlaceMergeUnionsAShardedDirectory) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  RunLog::write_meta(dir_, "config;shards=2");
  {
    RunLogOptions options{LogFormat::kBinary, 1};
    options.shard = 0;
    RunLog shard0(dir_, options);
    options.shard = 1;
    RunLog shard1(dir_, options);
    shard0.append(results[0]);
    shard1.append(results[1]);
    shard1.append(results[0]);  // cross-shard duplicate design point
  }
  const auto stats = RunLog::merge(dir_, {});
  EXPECT_EQ(stats.sources, 0u);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.kept, 2u);
  // Without strip_shard_token (the default — what adaptive unions
  // need) the token stays, so a single-process resume of the union is
  // refused instead of mis-charging sibling shards' records against
  // one seed's trajectory.
  EXPECT_EQ(*RunLog::read_meta(dir_), "config;shards=2");
  EXPECT_FALSE(
      std::filesystem::exists(RunLog::shard_binary_results_path(dir_, 0)));
  const auto merged = RunLog::load(dir_);
  ASSERT_EQ(merged.size(), 2u);
  expect_equal(merged[0], results[0]);
  expect_equal(merged[1], results[1]);
}

TEST_F(ShardTest, MergeWithNothingRecordedAnywhereIsRefused) {
  EXPECT_THROW(RunLog::merge(dir_, {}), std::runtime_error);
}

}  // namespace
}  // namespace mergescale::search
