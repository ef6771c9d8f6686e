#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/app_params.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"

// Resumed adaptive runs must replay deterministically: kill a persisted
// search mid-flight (simulated by byte-truncating its log, which also
// leaves a torn tail to repair), resume by seeding the run with the
// log's design points, and the continued run must reproduce the
// uninterrupted run's SearchOutcome —
// not just the best point but the whole observable outcome.  CI
// smoke-tests this at the shell level; this pins it in ctest.

namespace mergescale::search {
namespace {

class ResumeReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_resume_replay_" +
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
  spec.name = "resume-replay-test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm};
  return spec;
}

/// Asserts `resumed` reproduces `reference`.  `seeded` is the
/// resumed run's seeded spend: the replayed rounds revisit seeded
/// points, so the resumed trace's evaluation coordinate sits at
/// max(seeded, reference) — flat across the seeded region, then
/// identical — while every other observable (round count, per-round
/// best, proposals, restarts, best point, archive) matches exactly.
void expect_same_outcome(const SearchOutcome& resumed,
                         const SearchOutcome& reference,
                         std::uint64_t seeded,
                         const std::string& label) {
  EXPECT_EQ(resumed.found, reference.found) << label;
  EXPECT_EQ(resumed.evaluations, reference.evaluations) << label;
  EXPECT_EQ(resumed.proposals, reference.proposals) << label;
  EXPECT_EQ(resumed.restarts, reference.restarts) << label;
  if (resumed.found && reference.found) {
    EXPECT_DOUBLE_EQ(resumed.best.speedup, reference.best.speedup) << label;
    EXPECT_DOUBLE_EQ(resumed.best.n, reference.best.n) << label;
    EXPECT_DOUBLE_EQ(resumed.best.r, reference.best.r) << label;
    EXPECT_DOUBLE_EQ(resumed.best.rl, reference.best.rl) << label;
    EXPECT_EQ(resumed.best.app, reference.best.app) << label;
    EXPECT_EQ(resumed.best.variant, reference.best.variant) << label;
  }
  ASSERT_EQ(resumed.trace.size(), reference.trace.size()) << label;
  for (std::size_t i = 0; i < resumed.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i].evaluations,
              std::max(seeded, reference.trace[i].evaluations))
        << label << " trace[" << i << "]";
    EXPECT_DOUBLE_EQ(resumed.trace[i].best_speedup,
                     reference.trace[i].best_speedup)
        << label << " trace[" << i << "]";
  }
  ASSERT_EQ(resumed.archive.size(), reference.archive.size()) << label;
  for (std::size_t i = 0; i < resumed.archive.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.archive[i].speedup,
                     reference.archive[i].speedup)
        << label << " archive[" << i << "]";
  }
}

/// Truncates `path` to `fraction` of its size — the deterministic
/// stand-in for a SIGKILL mid-append (torn tail included).
void truncate_to_fraction(const std::string& path, double fraction) {
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const auto size = std::filesystem::file_size(path);
  const auto cut = static_cast<std::uintmax_t>(size * fraction);
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, size);
  std::filesystem::resize_file(path, cut);
}

TEST_F(ResumeReplayTest, KilledAnnealResumesIdentically) {
  const explore::ScenarioSpec spec = sample_spec();
  const SearchSpace space(spec);
  SearchOptions options;
  options.strategy = Strategy::kAnneal;
  options.budget = 90;
  options.seed = 2026;
  options.walkers = 4;

  explore::ExploreEngine uninterrupted;
  const SearchOutcome reference = run_search(uninterrupted, space, options);
  ASSERT_TRUE(reference.found);

  // Record the full run, then "kill" it by keeping ~55% of the log in
  // bytes: a torn final record plus a lost flush-group tail.
  {
    explore::ExploreEngine engine;
    RunLog log(dir_, {LogFormat::kBinary, 8});
    run_search(engine, space, options, &log);
  }
  truncate_to_fraction(RunLog::binary_results_path(dir_), 0.55);

  // Resume: seed the run with what survived of the damaged log, charged
  // against the same budget, and replay.
  explore::ExploreEngine engine({.use_cache = false});
  const auto records = RunLog::load(dir_);
  ASSERT_FALSE(records.empty());
  const std::vector<PriorPoint> prior = prior_points(space, records);
  ASSERT_EQ(prior.size(), records.size());
  ASSERT_LT(prior.size(), reference.evaluations);  // really mid-run
  RunLog log(dir_, {LogFormat::kBinary, 8});  // repairs the torn tail
  expect_same_outcome(run_search(engine, space, options, &log, prior),
                      reference, prior.size(), "anneal-resume");
  log.flush();
  // Only what the cut lost is evaluated again.
  EXPECT_EQ(log.appended(), reference.evaluations - prior.size());
}

TEST_F(ResumeReplayTest, KilledGeneticResumesIdentically) {
  const explore::ScenarioSpec spec = sample_spec();
  const SearchSpace space(spec);
  SearchOptions options;
  options.strategy = Strategy::kGenetic;
  options.budget = 80;
  options.seed = 7;
  options.population = 16;

  explore::ExploreEngine uninterrupted;
  const SearchOutcome reference = run_search(uninterrupted, space, options);
  ASSERT_TRUE(reference.found);

  {
    explore::ExploreEngine engine;
    RunLog log(dir_, {LogFormat::kBinary, 4});
    run_search(engine, space, options, &log);
  }
  truncate_to_fraction(RunLog::binary_results_path(dir_), 0.6);

  explore::ExploreEngine engine({.use_cache = false});
  const auto records = RunLog::load(dir_);
  const std::vector<PriorPoint> prior = prior_points(space, records);
  ASSERT_GT(prior.size(), 0u);
  const SearchOutcome continued =
      run_search(engine, space, options, nullptr, prior);
  expect_same_outcome(continued, reference, prior.size(), "genetic-resume");
}

}  // namespace
}  // namespace mergescale::search
