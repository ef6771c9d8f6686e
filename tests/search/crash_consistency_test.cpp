// Crash-consistency harness: every test runs the persistence stack over
// a util::FaultyIoEnv, injects power loss / ENOSPC / short writes at
// named fail points, then replays recovery and checks the documented
// contract — what load() returns is a PREFIX of what was appended
// (never a fabricated or reordered record), and the loss is bounded by
// the documented crash window: the one flush group still filling.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "search/run_log.hpp"
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

TEST_F(CrashConsistencyTest, EnospcMidCompactLeavesOriginalLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(8);
  RunLog::write_meta(dir_, "crash-harness-config");
  {
    RunLog log(dir_, options(/*flush_every=*/1, /*fsync=*/false));
    for (const auto& record : records) log.append(record);
  }

  // The rewrite's temp file hits ENOSPC.
  util::FailPoints::instance().arm("io.write", "always@.compact.tmp");
  EXPECT_THROW(RunLog::compact(dir_), std::exception);
  util::FailPoints::instance().disarm_all();

  // Original intact, partial output removed.
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), records.size());
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir_) / ".compact.tmp"));

  // The retry on a healthy disk succeeds.
  const auto stats = RunLog::compact(dir_);
  EXPECT_EQ(stats.kept, records.size());
  expect_prefix(RunLog::load(dir_), records);
}

TEST_F(CrashConsistencyTest, FailedRenameMidCompactLeavesOriginalLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const auto records = make_records(4);
  RunLog::write_meta(dir_, "crash-harness-config");
  {
    RunLog log(dir_, options(1, false));
    for (const auto& record : records) log.append(record);
  }
  util::FailPoints::instance().arm("io.rename", "always@.compact.tmp");
  EXPECT_THROW(RunLog::compact(dir_), std::exception);
  util::FailPoints::instance().disarm_all();
  const auto loaded = RunLog::load(dir_);
  expect_prefix(loaded, records);
  EXPECT_EQ(loaded.size(), records.size());
}

TEST_F(CrashConsistencyTest, EnospcMidMergeLeavesTargetLoadable) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  const std::string source_dir = dir_ + "/source";
  const auto records = make_records(8);
  RunLog::write_meta(dir_, "crash-harness-config");
  RunLog::write_meta(source_dir, "crash-harness-config");
  {
    RunLog target_log(dir_, options(1, false));
    for (std::size_t i = 0; i < 4; ++i) target_log.append(records[i]);
    RunLog source_log(source_dir, options(1, false));
    for (std::size_t i = 4; i < 8; ++i) source_log.append(records[i]);
  }

  util::FailPoints::instance().arm("io.write", "always@.compact.tmp");
  EXPECT_THROW(RunLog::merge(dir_, {source_dir}), std::exception);
  util::FailPoints::instance().disarm_all();

  // Target and source both still load their own records.
  auto target_loaded = RunLog::load(dir_);
  expect_prefix(target_loaded, records);
  EXPECT_EQ(target_loaded.size(), 4u);
  EXPECT_EQ(RunLog::load(source_dir).size(), 4u);

  // Retry completes the union.
  const auto stats = RunLog::merge(dir_, {source_dir});
  EXPECT_EQ(stats.kept, records.size());
  EXPECT_EQ(RunLog::load(dir_).size(), records.size());
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
