// Crash-consistency harness: every test runs the persistence stack over
// a util::FaultyIoEnv, injects power loss / ENOSPC / short writes at
// named fail points, then replays recovery and checks the documented
// contract — what load() returns is a PREFIX of what was appended
// (never a fabricated or reordered record), and the loss is bounded by
// the documented crash window: the one flush group still filling.
// The sweep tests run explore_cli's sweep (search::run_sweep: chunks of
// kSweepChunk flat indices, fresh results appended in groups of
// kSweepFlushEvery) and check that a killed disk costs at most one
// group, which a resume evaluates again and nothing more.

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/report.hpp"
#include "search/run_log.hpp"
#include "search/strategy.hpp"
#include "util/failpoint.hpp"
#include "util/io_env.hpp"

namespace mergescale::search {
namespace {

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_crash_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    util::FailPoints::instance().disarm_all();
    std::filesystem::remove_all(dir_);
  }

  static RunLogOptions options(std::size_t flush_every, bool fsync) {
    RunLogOptions opts;
    opts.flush_every = flush_every;
    opts.fsync = fsync;
    return opts;
  }

  std::string dir_;
};

/// The meta config the harness records under: a well-formed exhaustive
/// run, which RunLog::fold accepts.
constexpr const char* kConfig = "apps=crash-harness;strategy=exhaustive";

/// Synthetic records with distinct design points (r = index), so
/// deduplication never collapses them and a loaded prefix is countable.
std::vector<explore::EvalResult> make_records(std::size_t count) {
  // std::string (not const char*) sources: assigning a string literal
  // through operator=(const char*) trips GCC 12's -Wrestrict false
  // positive (PR105329) under -O2, and -Werror turns that into a build
  // break.
  const std::string scenario = "crash-harness";
  const std::string app = "kmeans";
  const std::string growth = "n";
  const std::string topology = "mesh";
  std::vector<explore::EvalResult> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult result;
    result.index = i;
    result.scenario = scenario;
    result.variant = core::ModelVariant::kAsymmetric;
    result.n = 256.0;
    result.app = app;
    result.growth = growth;
    result.topology = topology;
    result.r = static_cast<double>(i + 1);
    result.rl = 4.0;
    result.feasible = true;
    result.cores = 64.0;
    result.speedup = 10.0 + static_cast<double>(i);
    records.push_back(std::move(result));
  }
  return records;
}

/// Asserts `loaded` is exactly the first loaded.size() of `appended`.
void expect_prefix(const std::vector<explore::EvalResult>& loaded,
                   const std::vector<explore::EvalResult>& appended) {
  ASSERT_LE(loaded.size(), appended.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].index, appended[i].index) << "record " << i;
    EXPECT_DOUBLE_EQ(loaded[i].r, appended[i].r) << "record " << i;
    EXPECT_DOUBLE_EQ(loaded[i].speedup, appended[i].speedup)
        << "record " << i;
  }
}

/// 2,000 distinct points.
explore::ScenarioSpec sweep_spec() {
  explore::ScenarioSpec spec;
  spec.name = "crash-sweep";
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.small_core_sizes = {1.0, 2.0, 4.0, 8.0};
  for (int size = 1; size <= 200; ++size) spec.sizes.push_back(size);
  return spec;
}

struct Sweep {
  std::vector<explore::EvalResult> results;
  std::uint64_t appended = 0;  ///< records the log accepted
  bool failed = false;         ///< an append or the final flush threw
};

/// explore_cli's checkpointing sweep of `spec`, unsharded, into `log`,
/// seeded with `prior` when it resumes.  An I/O failure ends the sweep,
/// as it ends the CLI run.
Sweep sweep(explore::ExploreEngine& engine, RunLog& log,
            const explore::ScenarioSpec& spec,
            std::span<const PriorPoint> prior = {}) {
  const SearchSpace space(spec);
  Sweep run;
  try {
    run.results = run_sweep(engine, space,
                            ShardPlan(space.size(), 1).range(0), &log, prior);
  } catch (const std::exception&) {
    run.failed = true;
  }
  run.appended = log.appended();
  return run;
}

/// The records an uninterrupted sweep of `spec` logs, in order.
std::vector<explore::EvalResult> uninterrupted(
    const explore::ScenarioSpec& spec) {
  const SearchSpace space(spec);
  explore::ExploreEngine engine({2, false});
  return run_sweep(engine, space, ShardPlan(space.size(), 1).range(0));
}

/// Resumes an interrupted sweep of `spec` in `dir` the way explore_cli
/// --resume does (reopen the log, seed the sweep with the logged design
/// points, sweep again) and checks that it evaluates exactly the points
/// the log lost, reaches the uninterrupted run's best, and leaves every
/// point logged once.
void expect_resume_completes(const std::string& dir,
                             const explore::ScenarioSpec& spec,
                             std::size_t persisted) {
  const std::vector<explore::EvalResult> reference = uninterrupted(spec);
  {
    RunLog log(dir, RunLogOptions{LogFormat::kBinary, kSweepFlushEvery});
    explore::ExploreEngine engine({2, false});
    const std::vector<explore::EvalResult> records = RunLog::load(dir);
    const std::vector<PriorPoint> prior =
        prior_points(SearchSpace(spec), records);
    EXPECT_EQ(prior.size(), persisted);
    const Sweep resumed = sweep(engine, log, spec, prior);
    ASSERT_FALSE(resumed.failed);
    EXPECT_EQ(resumed.appended, reference.size() - persisted);
    EXPECT_EQ(std::count_if(resumed.results.begin(), resumed.results.end(),
                            [](const explore::EvalResult& result) {
                              return result.from_cache;
                            }),
              static_cast<std::ptrdiff_t>(persisted));
    ASSERT_NE(explore::best_result(resumed.results), nullptr);
    EXPECT_EQ(explore::best_line(*explore::best_result(resumed.results)),
              explore::best_line(*explore::best_result(reference)));
  }
  const std::vector<explore::EvalResult> logged = RunLog::load(dir);
  EXPECT_EQ(logged.size(), reference.size());
  EXPECT_EQ(RunLog::dedup(logged).size(), reference.size());
}

TEST_F(CrashConsistencyTest, PowerLossMidSweepLosesAtMostOneGroup) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const explore::ScenarioSpec spec = sweep_spec();
  const std::vector<explore::EvalResult> reference = uninterrupted(spec);
  // The power dies while the tenth group is being made durable: its
  // fsync never returns, and all of it but the last byte reaches the
  // platter, a torn final frame.
  util::FailPoints::instance().arm("io.sync", "nth:10@results");
  Sweep run;
  {
    RunLog log(dir_, options(kSweepFlushEvery, /*fsync=*/true));
    explore::ExploreEngine engine({2, false});
    run = sweep(engine, log, spec);
    faulty.lose_power([](std::uint64_t unsynced) { return unsynced - 1; });
  }
  util::FailPoints::instance().disarm_all();
  faulty.reset_power();
  ASSERT_TRUE(run.failed);
  ASSERT_LT(run.appended, reference.size());

  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, reference);
  EXPECT_GT(loaded.size(), 0u);
  EXPECT_LE(run.appended - loaded.size(), kSweepFlushEvery);

  // Reopening cuts the torn frame off; the resume re-spends only the
  // lost points.
  const std::string path = RunLog::binary_results_path(dir_);
  const std::uint64_t torn = std::filesystem::file_size(path);
  { RunLog reopened(dir_, options(kSweepFlushEvery, true)); }
  EXPECT_LT(std::filesystem::file_size(path), torn);
  expect_resume_completes(dir_, spec, loaded.size());
}

TEST_F(CrashConsistencyTest, StickyWriteFailureMidSweepLosesAtMostOneGroup) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const explore::ScenarioSpec spec = sweep_spec();
  const std::vector<explore::EvalResult> reference = uninterrupted(spec);
  // The disk dies after the header and nine groups.
  util::FailPoints::instance().arm("io.write", "after:10@results");
  Sweep run;
  {
    RunLog log(dir_, options(kSweepFlushEvery, /*fsync=*/false));
    explore::ExploreEngine engine({2, false});
    run = sweep(engine, log, spec);
  }
  util::FailPoints::instance().disarm_all();
  ASSERT_TRUE(run.failed);
  ASSERT_LT(run.appended, reference.size());

  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, reference);
  EXPECT_EQ(loaded.size(), 9 * kSweepFlushEvery);
  EXPECT_LE(run.appended - loaded.size(), kSweepFlushEvery);
  expect_resume_completes(dir_, spec, loaded.size());
}

TEST_F(CrashConsistencyTest, FailedLogRemovalAfterArchiveRenameIsBenign) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(100);
  RunLog::write_meta(dir_, kConfig);
  {
    RunLog log(dir_, options(kSweepFlushEvery, /*fsync=*/false));
    for (const auto& record : records) log.append(record);
  }
  // The archive is renamed into place, then removing the log fails.
  util::FailPoints::instance().arm("io.remove", "always@results");
  EXPECT_THROW(RunLog::fold(dir_), std::runtime_error);
  util::FailPoints::instance().disarm_all();
  ASSERT_TRUE(RunLog::has_archive(dir_));
  ASSERT_EQ(RunLog::result_logs(dir_).size(), 1u);

  // Archive plus log load as the full record set once deduplicated.
  EXPECT_EQ(RunLog::load(dir_).size(), 2 * records.size());
  const auto unique = RunLog::dedup(RunLog::load(dir_));
  expect_prefix(unique, records);
  EXPECT_EQ(unique.size(), records.size());

  // The next --archive folds the leftover log in to the same bytes and
  // removes it; the one after that only checks the archive.
  std::string first;
  ASSERT_TRUE(util::io_env().read_file(RunLog::archive_path(dir_), &first).ok());
  for (int pass = 0; pass < 2; ++pass) {
    const auto stats = RunLog::fold(dir_);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->rows, records.size());
    EXPECT_TRUE(RunLog::result_logs(dir_).empty());
    std::string again;
    ASSERT_TRUE(
        util::io_env().read_file(RunLog::archive_path(dir_), &again).ok());
    EXPECT_EQ(again, first) << "pass " << pass;
  }
}

TEST_F(CrashConsistencyTest, UnlistableDirectoryIsNotArchived) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(10);
  RunLog::write_meta(dir_, kConfig);
  {
    RunLog log(dir_, options(kSweepFlushEvery, /*fsync=*/false));
    for (const auto& record : records) log.append(record);
  }
  // --archive lists the logs it folds in and removes through the env: a
  // failed listing stops it before anything is written.
  util::FailPoints::instance().arm("io.list", "always");
  EXPECT_THROW(RunLog::fold(dir_), std::runtime_error);
  util::FailPoints::instance().disarm_all();
  EXPECT_FALSE(RunLog::has_archive(dir_));
  EXPECT_EQ(RunLog::load(dir_).size(), records.size());
}

TEST_F(CrashConsistencyTest, PowerLossKeepsEveryFsyncedGroup) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(5);
  {
    // flush_every=2, fsync on: groups [0,1] and [2,3] reach the platter;
    // record 4 is still in the filling buffer when the power dies.
    RunLog log(dir_, options(/*flush_every=*/2, /*fsync=*/true));
    for (const auto& record : records) log.append(record);
    faulty.lose_power();
    // The dying destructor cannot resurrect the unflushed record.
  }
  faulty.reset_power();
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), 4u);  // loss == the filling group, nothing more
}

TEST_F(CrashConsistencyTest, PowerLossWithoutFsyncLosesCleanly) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(3);
  {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    for (const auto& record : records) log.append(record);
    faulty.lose_power();
  }
  faulty.reset_power();
  // Nothing was fsynced, so anything may be gone — but what loads must
  // be a clean prefix, and the directory must stay resumable.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  {
    RunLog log(dir_, options(1, false));
    log.append(records[0]);
  }
  EXPECT_FALSE(RunLog::load(dir_).empty());
}

TEST_F(CrashConsistencyTest, TornTailIsDroppedAndRepaired) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(4);
  {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/true));
    for (std::size_t i = 0; i + 1 < records.size(); ++i) {
      log.append(records[i]);
    }
  }
  {
    // The final record is written but never synced; the power cut
    // keeps half its bytes — a torn tail.
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    log.append(records.back());
  }
  faulty.lose_power([](std::uint64_t unsynced) { return unsynced / 2; });
  faulty.reset_power();

  // The torn fragment is skipped, not misparsed.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), 3u);

  // Reopening for append repairs the tail; new records append cleanly.
  {
    RunLog log(dir_, options(1, true));
    log.append(records.back());
  }
  const auto repaired = RunLog::load(dir_);
  expect_prefix(repaired, records);
  EXPECT_EQ(repaired.size(), 4u);
}

TEST_F(CrashConsistencyTest, StickyWriteFailureSurfacesAndKeepsPrefix) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(6);
  // The disk dies (ENOSPC-style: sticky) partway through the run.
  util::FailPoints::instance().arm("io.write", "after:2@results");
  std::size_t accepted = 0;
  try {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    for (const auto& record : records) {
      log.append(record);
      ++accepted;
    }
    FAIL() << "appends kept succeeding on a dead disk";
  } catch (const std::exception&) {
    EXPECT_LT(accepted, records.size());
  }
  util::FailPoints::instance().disarm_all();

  // Whatever was accepted before the failure is intact; the failed
  // group was reported lost and is NOT quietly resurrected.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), accepted);
}

TEST_F(CrashConsistencyTest, ShortWriteTearsExactlyOneRecord) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(3);
  {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    log.append(records[0]);
    log.append(records[1]);
    util::FailPoints::instance().arm("io.short-write", "nth:1@results");
    EXPECT_THROW(log.append(records[2]), std::exception);
    util::FailPoints::instance().disarm_all();
  }
  // The half-written record parses as torn and is skipped.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), 2u);

  // Append-open repairs the torn tail; the record can be re-appended.
  {
    RunLog log(dir_, options(1, false));
    log.append(records[2]);
  }
  const auto repaired = RunLog::load(dir_);
  expect_prefix(repaired, records);
  EXPECT_EQ(repaired.size(), 3u);
}

TEST_F(CrashConsistencyTest, FlushIsADurabilityBarrier) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(10);
  {
    RunLog log(dir_, options(/*flush_every=*/4, /*fsync=*/true));
    for (const auto& record : records) log.append(record);
    log.flush();  // writes the partial group and fsyncs — a real barrier
    faulty.lose_power();
  }
  faulty.reset_power();
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), records.size());  // zero loss behind the barrier
}

/// True when `dir` holds archive.msca's temp file.
bool holds_archive_temp(const std::string& dir) {
  return std::filesystem::exists(RunLog::archive_path(dir) + ".tmp");
}

TEST_F(CrashConsistencyTest, EnospcMidFoldLeavesTheLogLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(8);
  RunLog::write_meta(dir_, kConfig);
  {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    for (const auto& record : records) log.append(record);
  }

  // The archive's temp file hits ENOSPC.
  util::FailPoints::instance().arm("io.write", "always@archive.msca.tmp");
  EXPECT_THROW(RunLog::fold(dir_), std::exception);
  util::FailPoints::instance().disarm_all();

  // Log intact, partial output removed, no archive installed.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), records.size());
  EXPECT_FALSE(holds_archive_temp(dir_));
  EXPECT_FALSE(RunLog::has_archive(dir_));

  // The retry on a healthy disk succeeds.
  const auto stats = RunLog::fold(dir_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows, records.size());
  EXPECT_TRUE(RunLog::result_logs(dir_).empty());
  expect_prefix(RunLog::load(dir_), records);
}

TEST_F(CrashConsistencyTest, FailedRenameMidFoldLeavesTheLogLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(4);
  RunLog::write_meta(dir_, kConfig);
  {
    RunLog log(dir_, options(1, false));
    for (const auto& record : records) log.append(record);
  }
  util::FailPoints::instance().arm("io.rename", "always@archive.msca.tmp");
  EXPECT_THROW(RunLog::fold(dir_), std::exception);
  util::FailPoints::instance().disarm_all();
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), records.size());
  EXPECT_FALSE(holds_archive_temp(dir_));
  EXPECT_FALSE(RunLog::has_archive(dir_));
}

TEST_F(CrashConsistencyTest, EnospcMidFoldWithASourceLeavesEveryLogLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const std::string source_dir = dir_ + "/source";
  const auto records = make_records(8);
  RunLog::write_meta(dir_, kConfig);
  RunLog::write_meta(source_dir, kConfig);
  {
    RunLog target_log(dir_, options(1, false));
    for (std::size_t i = 0; i < 4; ++i) target_log.append(records[i]);
    RunLog source_log(source_dir, options(1, false));
    for (std::size_t i = 4; i < 8; ++i) source_log.append(records[i]);
  }

  util::FailPoints::instance().arm("io.write", "always@archive.msca.tmp");
  EXPECT_THROW(RunLog::fold(dir_, {source_dir}), std::exception);
  util::FailPoints::instance().disarm_all();

  // Target and source both still load their own records.
  auto target_loaded = RunLog::load(dir_);
  expect_prefix(target_loaded, records);
  EXPECT_EQ(target_loaded.size(), 4u);
  EXPECT_EQ(RunLog::load(source_dir).size(), 4u);
  EXPECT_FALSE(holds_archive_temp(dir_));

  // Retry completes the union; the source is only read.
  const auto stats = RunLog::fold(dir_, {source_dir});
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows, records.size());
  expect_prefix(RunLog::load(dir_), records);
  EXPECT_EQ(RunLog::load(dir_).size(), records.size());
  EXPECT_EQ(RunLog::load(source_dir).size(), 4u);
}

TEST_F(CrashConsistencyTest, MetaWriteFailureLeavesNoMetaBehind) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  util::FailPoints::instance().arm("io.write", "always@.meta.");
  EXPECT_THROW(RunLog::write_meta(dir_, "config"), std::exception);
  util::FailPoints::instance().disarm_all();
  // No meta.json and no stray temp file: the directory reads as
  // "never recorded", not as corrupt.
  EXPECT_FALSE(RunLog::read_meta(dir_).has_value());
  std::vector<std::string> names;
  ASSERT_TRUE(util::io_env().list_dir(dir_, &names).ok());
  EXPECT_TRUE(names.empty());

  // A failed fsync must also refuse to install the meta record.
  util::FailPoints::instance().arm("io.sync", "always@.meta.");
  EXPECT_THROW(RunLog::write_meta(dir_, "config"), std::exception);
  util::FailPoints::instance().disarm_all();
  EXPECT_FALSE(RunLog::read_meta(dir_).has_value());

  RunLog::write_meta(dir_, "config");
  EXPECT_EQ(RunLog::read_meta(dir_).value_or(""), "config");
}

}  // namespace
}  // namespace mergescale::search
