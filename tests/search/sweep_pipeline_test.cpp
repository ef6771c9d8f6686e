// Differential test of search::run_sweep's ordered block pipeline: at
// every team size its results equal a serial reference (job_at +
// evaluate_job over each canonical flat, seeded flats copied from their
// records) field by field, its log loads back as exactly its fresh
// results, and the log's bytes do not depend on the team size.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/app_params.hpp"
#include "explore/engine.hpp"
#include "search/run_log.hpp"
#include "search/strategy.hpp"
#include "util/io_env.hpp"

namespace mergescale::search {
namespace {

constexpr int kTeamSizes[] = {1, 2, 3, 5};

/// A grid with many non-canonical flats: symmetric variants over
/// several small cores (inert), two topologies (inert for the non-comm
/// variants), a repeated size, and sizes and small cores above the
/// 64-BCE budget.  96,320 flats, about 24 sweep blocks.
explore::ScenarioSpec pipeline_spec() {
  explore::ScenarioSpec spec;
  spec.name = "sweep-pipeline";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm,
                   core::ModelVariant::kAsymmetricComm};
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus};
  spec.small_core_sizes = {1.0, 2.0, 4.0, 8.0, 128.0};
  spec.sizes = {2.0};
  for (int size = 1; size <= 300; ++size) spec.sizes.push_back(size);
  return spec;
}

/// The sweep run_sweep must equal: every canonical flat of `range` in
/// order, evaluated one job at a time, or copied from its seed.
std::vector<explore::EvalResult> reference_sweep(
    const SearchSpace& space, const ShardRange& range,
    std::span<const PriorPoint> prior) {
  std::vector<explore::EvalResult> results;
  auto seed = prior.begin();
  for (std::uint64_t flat = range.begin; flat < range.end; ++flat) {
    if (space.canonical(flat) != flat) continue;
    while (seed != prior.end() && seed->flat < flat) ++seed;
    if (seed != prior.end() && seed->flat == flat) {
      explore::EvalResult copy = *seed->record;
      copy.index = static_cast<std::size_t>(flat);
      copy.from_cache = true;
      results.push_back(std::move(copy));
      continue;
    }
    explore::EvalJob job;
    EXPECT_TRUE(space.job_at(space.decode(flat), &job));
    explore::EvalResult result = explore::evaluate_job(job, nullptr, false);
    result.index = static_cast<std::size_t>(flat);
    results.push_back(std::move(result));
  }
  return results;
}

void expect_same(const explore::EvalResult& got,
                 const explore::EvalResult& want, const std::string& where) {
  EXPECT_EQ(got.index, want.index) << where;
  EXPECT_EQ(got.scenario, want.scenario) << where;
  EXPECT_EQ(got.variant, want.variant) << where;
  EXPECT_EQ(got.n, want.n) << where;
  EXPECT_EQ(got.app, want.app) << where;
  EXPECT_EQ(got.growth, want.growth) << where;
  EXPECT_EQ(got.topology, want.topology) << where;
  EXPECT_EQ(got.r, want.r) << where;
  EXPECT_EQ(got.rl, want.rl) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.cores, want.cores) << where;
  EXPECT_EQ(got.speedup, want.speedup) << where;
  EXPECT_EQ(got.from_cache, want.from_cache) << where;
}

void expect_same(const std::vector<explore::EvalResult>& got,
                 const std::vector<explore::EvalResult>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same(got[i], want[i], where + " row " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;  // one row tells the story
  }
}

class SweepPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_sweep_pipeline_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Sweeps `range` at every team size, logging into a fresh directory
  /// each time, and checks the results against the reference, the log
  /// against the fresh results, and the log bytes across team sizes.
  void check(const SearchSpace& space, const ShardRange& range,
             std::span<const PriorPoint> prior, const std::string& name) {
    const std::vector<explore::EvalResult> want =
        reference_sweep(space, range, prior);
    std::vector<explore::EvalResult> fresh;
    for (const explore::EvalResult& result : want) {
      if (!result.from_cache) fresh.push_back(result);
    }
    std::string first_log;
    for (const int threads : kTeamSizes) {
      const std::string where = name + " at " + std::to_string(threads) +
                                " thread(s)";
      const std::string dir = dir_ + "/" + name + "_" + std::to_string(threads);
      explore::ExploreEngine engine({threads, false});
      {
        RunLog log(dir, RunLogOptions{LogFormat::kBinary, kSweepFlushEvery});
        expect_same(run_sweep(engine, space, range, &log, prior), want, where);
        EXPECT_EQ(log.appended(), fresh.size()) << where;
      }
      // Unlogged, the same results.
      expect_same(run_sweep(engine, space, range, nullptr, prior), want,
                  where + " unlogged");
      expect_same(RunLog::load(dir), fresh, where + " log");
      std::string bytes;
      ASSERT_TRUE(util::io_env()
                      .read_file(RunLog::binary_results_path(dir), &bytes)
                      .ok());
      if (threads == kTeamSizes[0]) {
        first_log = bytes;
      } else {
        EXPECT_TRUE(bytes == first_log)
            << where << ": the log's bytes depend on the team size";
      }
    }
  }

  std::string dir_;
};

TEST_F(SweepPipelineTest, WholeGridMatchesTheSerialReference) {
  const SearchSpace space(pipeline_spec());
  ASSERT_LT(space.point_count(), space.size());  // non-canonical flats exist
  check(space, ShardPlan(space.size(), 1).range(0), {}, "whole");
}

TEST_F(SweepPipelineTest, ACachedEngineMarksWhatItHeldBeforeTheSweep) {
  const SearchSpace space(pipeline_spec());
  const ShardRange range = ShardPlan(space.size(), 4).range(1);
  const std::vector<explore::EvalResult> want =
      reference_sweep(space, range, {});
  explore::ExploreEngine engine({3, true});
  expect_same(run_sweep(engine, space, range), want, "cold");
  // The second sweep finds every point in the cache.
  std::vector<explore::EvalResult> warm = run_sweep(engine, space, range);
  for (explore::EvalResult& result : warm) {
    EXPECT_TRUE(result.from_cache) << result.index;
    result.from_cache = false;
  }
  expect_same(warm, want, "warm");
}

TEST_F(SweepPipelineTest, RangesThatStartAndEndMidBlock) {
  const SearchSpace space(pipeline_spec());
  // Shard 1 of 3 starts and ends off any block boundary of the grid.
  const ShardRange middle = ShardPlan(space.size(), 3).range(1);
  ASSERT_NE(middle.begin % kSweepBlock, 0u);
  check(space, middle, {}, "shard");
  // A range off the grid's block boundaries whose length is no
  // multiple of kSweepBlock: a partial last block.
  check(space, {kSweepBlock - 1, 3 * kSweepBlock - 3}, {}, "partial");
  check(space, {7, 8}, {}, "one");
  check(space, {500, 500}, {}, "empty");
  check(space, {space.size() - 5, space.size()}, {}, "tail");
}

TEST_F(SweepPipelineTest, PriorSeedsAreCopiedInFlatOrder) {
  const SearchSpace space(pipeline_spec());
  const ShardRange all = ShardPlan(space.size(), 1).range(0);
  // Every seventh design point is recorded, with an inflated speedup so
  // a copy cannot pass for a fresh evaluation.
  std::vector<explore::EvalResult> records;
  const std::vector<explore::EvalResult> full = reference_sweep(space, all, {});
  for (std::size_t i = 0; i < full.size(); i += 7) {
    records.push_back(full[i]);
    records.back().speedup += 1000.0;
    records.back().index = 0;  // prior_points names points by their key
  }
  // Runs of seeds across a block boundary too.
  for (std::size_t i = 4090; i < 4110 && i < full.size(); ++i) {
    records.push_back(full[i]);
  }
  const std::vector<PriorPoint> prior = prior_points(space, records);
  ASSERT_GT(prior.size(), full.size() / 8);
  check(space, all, prior, "seeded");
  check(space, ShardPlan(space.size(), 4).range(2), prior, "seeded_shard");
}

}  // namespace
}  // namespace mergescale::search
