#include "search/run_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "core/app_params.hpp"
#include "explore/report.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"

namespace mergescale::search {
namespace {

class RunLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_run_log_" +
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
  spec.name = "run-log-test";
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
  EXPECT_EQ(a.from_cache, b.from_cache);
}

TEST_F(RunLogTest, AppendThenLoadRoundTrips) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  {
    RunLog log(dir_);
    for (const auto& result : results) log.append(result);
    EXPECT_EQ(log.appended(), results.size());
  }
  const auto loaded = RunLog::load(dir_);
  ASSERT_EQ(loaded.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_equal(loaded[i], results[i]);
  }
}

TEST_F(RunLogTest, LoadOfAMissingDirectoryIsEmpty) {
  EXPECT_TRUE(RunLog::load(dir_ + "/nonexistent").empty());
}

TEST_F(RunLogTest, RoundTripsAwkwardLabels) {
  explore::EvalResult result;
  result.index = 3;
  result.scenario = "he said \"hi\", twice\tand a\\slash\nnewline";
  result.variant = core::ModelVariant::kAsymmetricComm;
  result.n = 256.0;
  result.app = "app,with\"quotes\"";
  result.growth = "growth";
  result.topology = "mesh";
  result.r = 1.5;
  result.rl = 32.25;
  result.cores = 150.5;
  result.feasible = true;
  result.speedup = 123.456789;
  {
    RunLog log(dir_);
    log.append(result);
  }
  const auto loaded = RunLog::load(dir_);
  ASSERT_EQ(loaded.size(), 1u);
  expect_equal(loaded[0], result);
}

TEST_F(RunLogTest, RepairsATornTailBeforeAppending) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  {
    RunLog log(dir_);
    log.append(results[0]);
  }
  const std::string path = RunLog::binary_results_path(dir_);
  const auto intact = std::filesystem::file_size(path);
  {
    RunLog log(dir_);
    log.append(results[2]);
  }
  // Kill mid-write: only half of the second record's bytes reached disk.
  std::filesystem::resize_file(
      path, intact + (std::filesystem::file_size(path) - intact) / 2);
  {
    // A resumed run's first append must NOT extend the fragment.
    RunLog log(dir_);
    log.append(results[1]);
  }
  const auto loaded = RunLog::load(dir_);
  ASSERT_EQ(loaded.size(), 2u);  // torn record dropped, both others intact
  expect_equal(loaded[0], results[0]);
  expect_equal(loaded[1], results[1]);
}

TEST_F(RunLogTest, ResumedSweepEvaluatesNothingLogged) {
  const SearchSpace space(sample_spec());
  const ShardRange all = ShardPlan(space.size(), 1).range(0);
  explore::ExploreEngine engine({.use_cache = false});
  {
    RunLog log(dir_);
    run_sweep(engine, space, all, &log);
  }

  const auto records = RunLog::load(dir_);
  ASSERT_EQ(records.size(), space.point_count());
  RunLog log(dir_);
  const auto again =
      run_sweep(engine, space, all, &log, prior_points(space, records));
  log.flush();
  EXPECT_EQ(log.appended(), 0u);  // nothing recomputed
  ASSERT_EQ(again.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(again[i].from_cache);
    EXPECT_EQ(again[i].index, records[i].index);
    EXPECT_DOUBLE_EQ(again[i].speedup, records[i].speedup);
    EXPECT_EQ(again[i].feasible, records[i].feasible);
  }
}

TEST_F(RunLogTest, PartialLogResumesToTheSameBestAsAnUninterruptedRun) {
  const SearchSpace space(sample_spec());
  const ShardRange all = ShardPlan(space.size(), 1).range(0);
  explore::ExploreEngine engine({.use_cache = false});
  const auto full = run_sweep(engine, space, all);
  const explore::EvalResult* expected = explore::best_result(full);
  ASSERT_NE(expected, nullptr);

  {
    // Simulate a run killed halfway: only the first half reached disk.
    RunLog log(dir_);
    for (std::size_t i = 0; i < full.size() / 2; ++i) log.append(full[i]);
  }
  const auto records = RunLog::load(dir_);
  RunLog log(dir_);
  const auto results =
      run_sweep(engine, space, all, &log, prior_points(space, records));
  log.flush();
  // Only the un-persisted half is recomputed...
  EXPECT_EQ(log.appended(), full.size() - full.size() / 2);
  // ... and the outcome matches the uninterrupted run exactly.
  const explore::EvalResult* best = explore::best_result(results);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->index, expected->index);
  EXPECT_DOUBLE_EQ(best->speedup, expected->speedup);
}

TEST_F(RunLogTest, PriorPointsSkipRecordsForeignToTheSpace) {
  explore::ExploreEngine engine({.use_cache = false});
  const SearchSpace space(sample_spec());
  const auto results =
      run_sweep(engine, space, ShardPlan(space.size(), 1).range(0));
  explore::ScenarioSpec other = sample_spec();
  other.apps = {core::presets::fuzzy()};  // no kmeans/hop any more
  EXPECT_TRUE(prior_points(SearchSpace(other), results).empty());
  EXPECT_EQ(prior_points(space, results).size(), results.size());
}

TEST_F(RunLogTest, WarmSkipsRecordsForeignToTheSpec) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  explore::ScenarioSpec other = sample_spec();
  other.apps = {core::presets::fuzzy()};  // no kmeans/hop any more
  explore::ExploreEngine target;
  EXPECT_EQ(RunLog::warm(results, other, target), 0u);
  EXPECT_EQ(target.cache().size(), 0u);
}

TEST_F(RunLogTest, NonFiniteValuesRoundTripAsInfeasible) {
  // A non-finite value is no design a model comparison can use, but
  // dropping the record would make a resumed run re-spend budget on the
  // point: it loads back as an (infeasible) design point.
  explore::EvalResult result;
  result.index = 2;
  result.scenario = "nonfinite";
  result.n = 64.0;
  result.app = "kmeans";
  result.growth = "linear";
  result.r = 4.0;
  result.rl = 16.0;
  result.feasible = true;
  result.cores = std::numeric_limits<double>::quiet_NaN();
  result.speedup = std::numeric_limits<double>::infinity();
  {
    RunLog log(dir_);
    log.append(result);
  }
  const auto loaded = RunLog::load(dir_);
  ASSERT_EQ(loaded.size(), 1u);  // the record is kept, not dropped
  EXPECT_EQ(loaded[0].index, 2u);
  EXPECT_EQ(loaded[0].app, "kmeans");
  EXPECT_DOUBLE_EQ(loaded[0].r, 4.0);
  EXPECT_FALSE(loaded[0].feasible);  // non-finite → infeasible
  EXPECT_DOUBLE_EQ(loaded[0].speedup, 0.0);
  EXPECT_DOUBLE_EQ(loaded[0].cores, 0.0);
}

TEST_F(RunLogTest, MetaRoundTripsAndDetectsAbsence) {
  EXPECT_FALSE(RunLog::read_meta(dir_).has_value());
  const std::string config = "apps=a,b;budgets=64 with \"quotes\" and \\";
  RunLog::write_meta(dir_, config);
  const auto read = RunLog::read_meta(dir_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, config);
}

TEST_F(RunLogTest, ReadMetaDistinguishesMissingFromCorrupt) {
  // Missing: the directory was never recorded — quietly resumable as
  // "nothing there".  Corrupt (a crash truncated the write): loud error,
  // because treating it as missing would let a fresh run overwrite a
  // directory that holds recorded results.
  EXPECT_FALSE(RunLog::read_meta(dir_).has_value());

  std::filesystem::create_directories(dir_);
  { std::ofstream out(RunLog::meta_path(dir_)); }  // empty file
  EXPECT_THROW(RunLog::read_meta(dir_), std::runtime_error);

  { std::ofstream out(RunLog::meta_path(dir_)); out << "{\"conf"; }  // torn
  EXPECT_THROW(RunLog::read_meta(dir_), std::runtime_error);

  { std::ofstream out(RunLog::meta_path(dir_)); out << "{\"other\":1}\n"; }
  EXPECT_THROW(RunLog::read_meta(dir_), std::runtime_error);

  RunLog::write_meta(dir_, "config");  // a good write repairs it
  const auto read = RunLog::read_meta(dir_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "config");
}

TEST_F(RunLogTest, FlushIsTheCheckpointBarrier) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  RunLog log(dir_, {LogFormat::kBinary, 1024});  // group never fills
  for (const auto& result : results) log.append(result);
  // Nothing guaranteed on disk yet (the group is still filling) — but
  // after flush() every appended record must be loadable: flush is the
  // checkpoint barrier run_search relies on.
  log.flush();
  EXPECT_EQ(RunLog::load(dir_).size(), results.size());
}

TEST_F(RunLogTest, FoldOnAnEmptyOrHeaderOnlyDirectoryIsANoOp) {
  // A recorded directory with no results yet: no error, no fabricated
  // files.
  RunLog::write_meta(dir_, "strategy=exhaustive;shards=2");
  EXPECT_FALSE(RunLog::fold(dir_).has_value());
  EXPECT_FALSE(RunLog::has_results(dir_));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);  // meta.json alone
  EXPECT_EQ(*RunLog::read_meta(dir_), "strategy=exhaustive;shards=2");

  // Header-only binary log (a run killed before its first flush): still
  // a no-op — and the header-only file survives untouched.
  { RunLog log(dir_, {LogFormat::kBinary, 1}); }
  const auto bytes_before =
      std::filesystem::file_size(RunLog::binary_results_path(dir_));
  EXPECT_FALSE(RunLog::fold(dir_).has_value());
  EXPECT_EQ(std::filesystem::file_size(RunLog::binary_results_path(dir_)),
            bytes_before);
  EXPECT_FALSE(RunLog::has_archive(dir_));
}

TEST_F(RunLogTest, RefusesDirectoriesHoldingARetiredNdjsonLog) {
  // A directory recorded by an older build may still hold NDJSON row
  // logs.  Skipping them silently would make a resume recompute every
  // record they hold, so every entry point refuses, naming the file.
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  for (const std::string name :
       {"results.ndjson", "results.shard-2.ndjson"}) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir_);
    RunLog::write_meta(dir_, "strategy=exhaustive");
    {
      RunLog log(dir_);
      log.append(results[0]);
    }
    std::ofstream(std::filesystem::path(dir_) / name) << "{\"index\":0}\n";
    const auto expect_refused = [&name](const auto& call) {
      try {
        call();
        ADD_FAILURE() << "accepted a directory holding " << name;
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
            << error.what();
      }
    };
    expect_refused([&] { RunLog::load(dir_); });           // load
    expect_refused([&] { RunLog::load_shard(dir_, 0); });  // shard resume
    expect_refused([&] { RunLog log(dir_); });             // resume append
    expect_refused([&] { RunLog::has_results(dir_); });    // fresh start
    expect_refused([&] { RunLog::fold(dir_); });           // fold target
    const std::string target = dir_ + "/target";
    RunLog::write_meta(target, "strategy=exhaustive");
    expect_refused([&] { RunLog::fold(target, {dir_}); });  // fold source
    // Nothing was rewritten or removed on the way to the refusal.
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir_) / name));
    EXPECT_EQ(BinaryLog::load(RunLog::binary_results_path(dir_)).size(), 1u);
  }
}

TEST_F(RunLogTest, MetaRoundTripsEscapedQuotesBackslashesAndControlBytes) {
  std::string config = "apps=\"a\",\\b\\;sizes=\\\"";
  for (char byte = 0x01; byte < 0x20; ++byte) config.push_back(byte);
  config += "\"end\\";
  RunLog::write_meta(dir_, config);
  std::ifstream in(RunLog::meta_path(dir_));
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // One line on disk: every control byte went out as \u00xx.
  EXPECT_EQ(bytes.find('\n'), bytes.size() - 1);
  EXPECT_NE(bytes.find("\\u001f"), std::string::npos);
  const auto read = RunLog::read_meta(dir_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, config);
}

TEST_F(RunLogTest, ReadMetaRefusesAnythingButOneConfigRecord) {
  std::filesystem::create_directories(dir_);
  for (const char* line :
       {"{", "{}", "{\"config\":}", "{\"config\":1}",
        "{\"config\":\"v\"} trailing", "{\"config\":\"unterminated",
        "{\"config\":\"v\",\"other\":\"w\"}", "{\"other\":\"v\"}",
        "{\"config\":\"a\"b\"}", "{\"config\":\"ends in \\\"}",
        "{\"config\":\"\\n\"}", "{\"config\":\"\\u00f\"}",
        "{\"config\":\"\\u0080\"}", " {\"config\":\"v\"}"}) {
    { std::ofstream out(RunLog::meta_path(dir_)); out << line << "\n"; }
    EXPECT_THROW(RunLog::read_meta(dir_), std::runtime_error) << line;
  }
  { std::ofstream out(RunLog::meta_path(dir_)); out << "{\"config\":\"\"}"; }
  EXPECT_EQ(RunLog::read_meta(dir_), std::optional<std::string>(""));
}

}  // namespace
}  // namespace mergescale::search
