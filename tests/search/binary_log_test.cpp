#include "search/binary_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "core/app_params.hpp"
#include "explore/report.hpp"
#include "search/design_key.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "util/rng.hpp"

namespace mergescale::search {
namespace {

class BinaryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_binary_log_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (std::filesystem::path(dir_) / "results.msbin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

explore::ScenarioSpec sample_spec() {
  explore::ScenarioSpec spec;
  spec.name = "binary-log-test";
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

TEST_F(BinaryLogTest, AppendThenLoadRoundTrips) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  {
    BinaryLog log(path_);
    for (const auto& result : results) log.append(result);
    EXPECT_EQ(log.appended(), results.size());
  }
  const auto loaded = BinaryLog::load(path_);
  ASSERT_EQ(loaded.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_equal(loaded[i], results[i]);
  }
}

TEST_F(BinaryLogTest, RoundTripsAwkwardLabels) {
  explore::EvalResult result;
  result.index = 3;
  result.scenario = "he said \"hi\", twice\tand a\\slash\nnewline";
  result.variant = core::ModelVariant::kAsymmetricComm;
  result.n = 256.0;
  result.app = "app,with\"quotes\"";
  result.growth = "growth";
  result.topology = "mesh";
  result.r = 1.5;
  result.rl = 32.25;
  result.cores = 150.5;
  result.feasible = true;
  result.speedup = 123.456789;
  {
    BinaryLog log(path_);
    log.append(result);
  }
  const auto loaded = BinaryLog::load(path_);
  ASSERT_EQ(loaded.size(), 1u);
  expect_equal(loaded[0], result);
}

TEST_F(BinaryLogTest, LoadOfAMissingFileIsEmpty) {
  EXPECT_TRUE(BinaryLog::load(path_).empty());
}

TEST_F(BinaryLogTest, RefusesAForeignHeader) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a binary log at all, but longer than a header";
  }
  EXPECT_THROW(BinaryLog::load(path_), std::runtime_error);
  EXPECT_THROW(BinaryLog{path_}, std::runtime_error);
}

TEST_F(BinaryLogTest, RefusesASchemaMismatch) {
  {
    BinaryLog log(path_);  // valid header
  }
  // Flip one schema byte (offset 8..15 is the schema word).
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(9);
  const char byte = static_cast<char>(file.get());
  file.seekp(9);
  file.put(static_cast<char>(byte ^ '\x7E'));
  file.close();
  EXPECT_THROW(BinaryLog::load(path_), std::runtime_error);
  EXPECT_THROW(BinaryLog{path_}, std::runtime_error);
}

TEST_F(BinaryLogTest, TornTailIsRepairedBeforeAppending) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  {
    BinaryLog log(path_);
    log.append(results[0]);
  }
  const auto intact = std::filesystem::file_size(path_);
  {
    // Kill mid-write: half of a frame reaches disk.
    BinaryLog log(path_);
    log.append(results[1]);
  }
  std::filesystem::resize_file(
      path_, intact + (std::filesystem::file_size(path_) - intact) / 2);
  {
    // A resumed run's first append must not extend the fragment.
    BinaryLog log(path_);
    log.append(results[2]);
  }
  const auto loaded = BinaryLog::load(path_);
  ASSERT_EQ(loaded.size(), 2u);
  expect_equal(loaded[0], results[0]);
  expect_equal(loaded[1], results[2]);
}

TEST_F(BinaryLogTest, CrcCorruptedRecordIsSkippedNotFatal) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  std::uintmax_t first_two = 0;
  {
    BinaryLog log(path_);
    log.append(results[0]);
    log.append(results[1]);
    log.flush();
    first_two = std::filesystem::file_size(path_);
    log.append(results[2]);
  }
  {
    // Corrupt one payload byte of the *middle* record (the speedup field
    // sits at its tail), leaving the framing intact.
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(first_two) - 3);
    const char byte = static_cast<char>(file.get());
    file.seekp(static_cast<std::streamoff>(first_two) - 3);
    file.put(static_cast<char>(byte ^ '\x55'));
  }
  const auto loaded = BinaryLog::load(path_);
  ASSERT_EQ(loaded.size(), 2u);  // corrupt record skipped, rest intact
  expect_equal(loaded[0], results[0]);
  expect_equal(loaded[1], results[2]);
  {
    // Append still works: the corrupt record is framed, so the tail
    // repair keeps everything after it.
    BinaryLog log(path_);
    log.append(results[3]);
  }
  const auto reloaded = BinaryLog::load(path_);
  ASSERT_EQ(reloaded.size(), 3u);
  expect_equal(reloaded[2], results[3]);
}

TEST_F(BinaryLogTest, NonFiniteValuesLoadAsInfeasible) {
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
    BinaryLog log(path_);
    log.append(result);
  }
  const auto loaded = BinaryLog::load(path_);
  ASSERT_EQ(loaded.size(), 1u);  // kept, not dropped
  EXPECT_EQ(loaded[0].index, 2u);
  EXPECT_EQ(loaded[0].app, "kmeans");
  EXPECT_DOUBLE_EQ(loaded[0].r, 4.0);
  EXPECT_FALSE(loaded[0].feasible);  // non-finite -> infeasible
  EXPECT_DOUBLE_EQ(loaded[0].speedup, 0.0);
  EXPECT_DOUBLE_EQ(loaded[0].cores, 0.0);
}

TEST_F(BinaryLogTest, UnflushedGroupIsTheOnlyCrashLossWindow) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  ASSERT_GE(results.size(), 8u);
  {
    BinaryLog log(path_, /*flush_every=*/4);
    for (std::size_t i = 0; i < 7; ++i) log.append(results[i]);
    // No explicit flush, no destructor: simulate a SIGKILL by just
    // inspecting the file — records 0..3 flushed as a group, 4..6 are
    // the in-memory loss window.
    EXPECT_EQ(BinaryLog::load(path_).size(), 4u);
  }  // destructor flushes the rest
  EXPECT_EQ(BinaryLog::load(path_).size(), 7u);
}

TEST_F(BinaryLogTest, ResumeFromBinaryMatchesAnUninterruptedSearch) {
  // The end-to-end resume contract, binary edition: seed a run with a
  // killed run's logged design points, continue the same budget, land
  // on the identical best.
  const explore::ScenarioSpec spec = sample_spec();
  const SearchSpace space(spec);
  SearchOptions options;
  options.strategy = Strategy::kAnneal;
  options.budget = 60;
  options.seed = 11;

  explore::ExploreEngine uninterrupted({.use_cache = false});
  const SearchOutcome reference = run_search(uninterrupted, space, options);

  // "Killed" slice of the same budget, persisted to binary.
  const std::string run_dir = dir_ + "/run";
  SearchOptions slice = options;
  slice.budget = 25;
  {
    explore::ExploreEngine engine({.use_cache = false});
    RunLog log(run_dir, {LogFormat::kBinary, 4});
    run_search(engine, space, slice, &log);
  }
  // Resume: seed the run from the binary log, continue the budget.
  const auto records = RunLog::load(run_dir);
  ASSERT_FALSE(records.empty());
  const std::vector<PriorPoint> prior = prior_points(space, records);
  EXPECT_EQ(prior.size(), records.size());
  explore::ExploreEngine resumed({.use_cache = false});
  RunLog log(run_dir, {LogFormat::kBinary, 4});
  const SearchOutcome continued =
      run_search(resumed, space, options, &log, prior);
  log.flush();

  EXPECT_EQ(continued.evaluations, reference.evaluations);
  EXPECT_EQ(log.appended(), reference.evaluations - records.size());
  ASSERT_EQ(continued.found, reference.found);
  if (reference.found) {
    EXPECT_DOUBLE_EQ(continued.best.speedup, reference.best.speedup);
  }
}

TEST_F(BinaryLogTest, FoldDropsDuplicateKeys) {
  explore::ExploreEngine engine;
  const auto results = engine.run(sample_spec());
  RunLog::write_meta(dir_, "strategy=exhaustive");
  {
    RunLog log(dir_, {LogFormat::kBinary, 16});
    for (const auto& result : results) log.append(result);
    for (const auto& result : results) log.append(result);  // duplicates
  }
  const auto before = RunLog::load(dir_);
  ASSERT_EQ(before.size(), 2 * results.size());
  const auto stats = RunLog::fold(dir_);
  ASSERT_TRUE(stats.has_value());
  // The spec's symmetric jobs are duplicated across the small-core axis
  // (inert for them), so folding drops more than the doubled append.
  EXPECT_LE(stats->rows, results.size());
  const auto folded = RunLog::load(dir_);
  EXPECT_EQ(folded.size(), stats->rows);
  // Every surviving record is the first occurrence of its design point.
  for (const auto& record : folded) {
    const DesignKey key = DesignKey::of(record);
    const auto first =
        std::find_if(before.begin(), before.end(), [&key](const auto& r) {
          return DesignKey::of(r) == key;
        });
    ASSERT_NE(first, before.end());
    expect_equal(record, *first);
  }
  // Folding must not lose any design point: the archive names every
  // point of the space, as the unfolded log does.
  EXPECT_EQ(prior_points(SearchSpace(sample_spec()), folded).size(),
            SearchSpace(sample_spec()).point_count());
}

TEST_F(BinaryLogTest, PriorPointsCountDistinctPointsWhenFilesOverlap) {
  // A directory can legitimately hold duplicate records across its
  // result files (a kill between an archive's rename and its cleanup of
  // the logs).  A resume must seed each design point once, or its spend
  // would double and a resumed search would silently under-spend its
  // budget.
  const SearchSpace space(sample_spec());
  explore::ExploreEngine engine({.use_cache = false});
  const auto results =
      run_sweep(engine, space, ShardPlan(space.size(), 1).range(0));
  {
    RunLog unsharded(dir_, {LogFormat::kBinary, 1});
    RunLogOptions options{LogFormat::kBinary, 8};
    options.shard = 0;
    RunLog shard(dir_, options);
    for (const auto& result : results) {
      unsharded.append(result);
      shard.append(result);
    }
  }
  const auto records = RunLog::load(dir_);
  ASSERT_EQ(records.size(), 2 * results.size());
  const std::vector<PriorPoint> prior = prior_points(space, records);
  ASSERT_EQ(prior.size(), results.size());
  for (std::size_t i = 0; i < prior.size(); ++i) {
    EXPECT_EQ(prior[i].flat, results[i].index);
    // The first record of each point: the unsharded log's.
    EXPECT_EQ(prior[i].record, &records[i]);
  }
}

// ---------------------------------------------------------------------------
// Property/fuzz corpora.  Invariants under arbitrary file damage:
//   - the loader NEVER crashes (it may throw only for a damaged header,
//     which is the documented refuse-don't-misparse contract);
//   - every loaded record is byte-genuine — equal to a record that was
//     actually appended (CRC framing makes a silently altered record a
//     ~2^-32 event, which these deterministic corpora never hit);
//   - reopening for append (the torn-tail repair path) never crashes
//     and the file stays appendable.
// ---------------------------------------------------------------------------

/// A deterministic log with `count` records whose labels cycle through a
/// small set (so string-table frames are interspersed with eval frames)
/// and whose index fields are unique — the identity the corpora use to
/// match loaded records back to appended ones.
std::vector<explore::EvalResult> fuzz_records(std::size_t count) {
  // std::string (not const char*) elements: assigning a string literal
  // through operator=(const char*) trips GCC 12's -Wrestrict false
  // positive (PR105329) under -O2, and -Werror turns that into a build
  // break.
  const std::string apps[] = {"kmeans", "fuzzy", "hop",
                              "a-much-longer-app-label"};
  const std::string growths[] = {"linear", "log"};
  const std::string scenario = "fuzz";
  std::vector<explore::EvalResult> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult r;
    r.index = i;
    r.scenario = scenario;
    r.variant = core::ModelVariant::kAsymmetric;
    r.n = 64.0 + static_cast<double>(i % 7);
    r.app = apps[i % 4];
    r.growth = growths[i % 2];
    r.r = 1.0 + static_cast<double>(i % 3);
    r.rl = 2.0 + static_cast<double>(i % 5);
    r.feasible = (i % 9) != 0;
    r.cores = 10.0 + static_cast<double>(i);
    r.speedup = 1.0 + 0.125 * static_cast<double>(i);
    records.push_back(std::move(r));
  }
  return records;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Asserts the fuzz invariants on a damaged file: load() recovers only
/// genuine records, in appended order, and append-after-reopen works.
void expect_genuine_subsequence(
    const std::string& path, const std::vector<explore::EvalResult>& originals) {
  std::vector<explore::EvalResult> loaded;
  try {
    loaded = BinaryLog::load(path);
  } catch (const std::runtime_error&) {
    // Only acceptable for header damage: the file no longer identifies
    // as this schema, and refusing is the contract.
    const std::string bytes = read_bytes(path);
    EXPECT_LT(bytes.size(), BinaryLog::kHeaderBytes);
    return;
  }
  std::size_t cursor = 0;  // order-preserving: a subsequence, not a subset
  for (const auto& record : loaded) {
    while (cursor < originals.size() &&
           originals[cursor].index != record.index) {
      ++cursor;
    }
    ASSERT_LT(cursor, originals.size())
        << "loaded a record that was never appended (index "
        << record.index << ")";
    expect_equal(record, originals[cursor]);
    ++cursor;
  }
  // Reopen-for-append must repair whatever tail is left and keep the
  // file appendable (this also exercises the truncation path).
  {
    BinaryLog log(path);
    log.append(originals[0]);
  }
  const auto after = BinaryLog::load(path);
  ASSERT_FALSE(after.empty());
  expect_equal(after.back(), originals[0]);
}

TEST_F(BinaryLogTest, FuzzTruncationRecoversEveryIntactRecord) {
  const auto records = fuzz_records(100);
  {
    BinaryLog log(path_);
    for (const auto& r : records) log.append(r);
  }
  const std::string bytes = read_bytes(path_);
  util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const auto cut = static_cast<std::size_t>(rng.bounded(bytes.size() + 1));
    write_bytes(path_, bytes.substr(0, cut));
    std::vector<explore::EvalResult> loaded;
    if (cut < BinaryLog::kHeaderBytes && cut > 0) {
      EXPECT_THROW(BinaryLog::load(path_), std::runtime_error);
      continue;
    }
    ASSERT_NO_THROW(loaded = BinaryLog::load(path_)) << "cut=" << cut;
    // Truncation only removes a suffix, so the survivors are exactly a
    // prefix of the appended sequence: every record whose frame (and
    // label dependencies, which always precede it) survived intact.
    ASSERT_LE(loaded.size(), records.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      expect_equal(loaded[i], records[i]);
    }
    // The undamaged file recovers everything.
    if (cut == bytes.size()) {
      EXPECT_EQ(loaded.size(), records.size());
    }
  }
}

TEST_F(BinaryLogTest, FuzzBitFlipsNeverCrashAndNeverFabricateRecords) {
  const auto records = fuzz_records(80);
  std::string pristine;
  {
    BinaryLog log(path_);
    for (const auto& r : records) log.append(r);
    log.flush();
    pristine = read_bytes(path_);
  }
  util::Xoshiro256 rng(777);
  for (int trial = 0; trial < 80; ++trial) {
    std::string bytes = pristine;
    // 1..4 random bit flips anywhere past the header (header damage is
    // the separate refuse-loudly contract, covered above).
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int flip = 0; flip < flips; ++flip) {
      const auto at = BinaryLog::kHeaderBytes +
                      static_cast<std::size_t>(rng.bounded(
                          bytes.size() - BinaryLog::kHeaderBytes));
      bytes[at] = static_cast<char>(
          bytes[at] ^ static_cast<char>(1u << rng.bounded(8)));
    }
    write_bytes(path_, bytes);
    expect_genuine_subsequence(path_, records);
  }
}

TEST_F(BinaryLogTest, FuzzFlipInsideAnEvalFrameLosesExactlyThatRecord) {
  // A flip confined to one eval frame — its CRC, type, or payload, but
  // not its length field — cannot desynchronize the walk: the framing
  // still delimits every record, so exactly the damaged record drops
  // and every other intact record is recovered.  (A damaged *string
  // table* frame legitimately takes down every record that references
  // the label, and a damaged length field ends the readable prefix —
  // both are covered by the unrestricted bit-flip corpus above.)
  const auto records = fuzz_records(50);
  std::string pristine;
  {
    BinaryLog log(path_);
    for (const auto& r : records) log.append(r);
    log.flush();
    pristine = read_bytes(path_);
  }
  // Walk the frames, collecting the flippable bytes of eval frames
  // (everything except the two length bytes).
  std::vector<std::size_t> flippable;
  {
    std::size_t offset = BinaryLog::kHeaderBytes;
    while (offset + 7 <= pristine.size()) {
      const auto len = static_cast<std::uint16_t>(
          static_cast<unsigned char>(pristine[offset + 4]) |
          (static_cast<unsigned char>(pristine[offset + 5]) << 8));
      if (pristine[offset + 6] == 1) {  // eval frame
        for (std::size_t i = 0; i < 7u + len; ++i) {
          if (i != 4 && i != 5) flippable.push_back(offset + i);
        }
      }
      offset += 7u + len;
    }
  }
  ASSERT_FALSE(flippable.empty());
  util::Xoshiro256 rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = pristine;
    const std::size_t at =
        flippable[static_cast<std::size_t>(rng.bounded(flippable.size()))];
    bytes[at] = static_cast<char>(bytes[at] ^ '\x40');
    write_bytes(path_, bytes);
    const auto loaded = BinaryLog::load(path_);
    ASSERT_EQ(loaded.size(), records.size() - 1)
        << "trial " << trial << " flipped byte " << at;
    std::size_t cursor = 0;
    for (const auto& record : loaded) {
      while (cursor < records.size() &&
             records[cursor].index != record.index) {
        ++cursor;
      }
      ASSERT_LT(cursor, records.size());
      expect_equal(record, records[cursor]);
      ++cursor;
    }
  }
}

TEST_F(BinaryLogTest, FuzzInterleavedAppendChunksNeverCrashTheLoader) {
  // Two writers whose output bytes end up interleaved in one file — the
  // failure mode of misusing one shard file from two processes (the
  // sharded layout exists precisely so this cannot happen in normal
  // operation).  The loader must survive arbitrary interleavings and
  // recover only genuine records.
  const auto records_a = fuzz_records(40);
  auto records_b = fuzz_records(40);
  for (auto& r : records_b) r.index += 1000;  // disjoint identities
  const std::string path_b = path_ + ".b";
  {
    BinaryLog a(path_);
    for (const auto& r : records_a) a.append(r);
    BinaryLog b(path_b);
    for (const auto& r : records_b) b.append(r);
  }
  const std::string bytes_a = read_bytes(path_);
  const std::string bytes_b = read_bytes(path_b);
  std::filesystem::remove(path_b);

  std::vector<explore::EvalResult> all = records_a;
  all.insert(all.end(), records_b.begin(), records_b.end());
  std::unordered_map<std::size_t, const explore::EvalResult*> by_index;
  for (const auto& r : all) by_index.emplace(r.index, &r);

  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    // Random-size chunks from each stream, interleaved after one header.
    std::string bytes = bytes_a.substr(0, BinaryLog::kHeaderBytes);
    std::size_t cursor_a = BinaryLog::kHeaderBytes;
    std::size_t cursor_b = BinaryLog::kHeaderBytes;
    while (cursor_a < bytes_a.size() || cursor_b < bytes_b.size()) {
      const bool from_a =
          cursor_b >= bytes_b.size() ||
          (cursor_a < bytes_a.size() && rng.bounded(2) == 0);
      const std::string& source = from_a ? bytes_a : bytes_b;
      std::size_t& cursor = from_a ? cursor_a : cursor_b;
      const auto take = static_cast<std::size_t>(1 + rng.bounded(200));
      const std::size_t len = std::min(take, source.size() - cursor);
      bytes += source.substr(cursor, len);
      cursor += len;
    }
    write_bytes(path_, bytes);
    std::vector<explore::EvalResult> loaded;
    ASSERT_NO_THROW(loaded = BinaryLog::load(path_)) << "trial " << trial;
    for (const auto& record : loaded) {
      const auto it = by_index.find(record.index);
      ASSERT_NE(it, by_index.end())
          << "fabricated record, index " << record.index;
      // Label bindings can differ between the two writers' string
      // tables, so only records whose labels match their origin are
      // genuine; CRC guarantees the binary payload itself, so numeric
      // fields must always match.
      EXPECT_DOUBLE_EQ(record.speedup, it->second->speedup);
      EXPECT_DOUBLE_EQ(record.n, it->second->n);
      EXPECT_DOUBLE_EQ(record.r, it->second->r);
      EXPECT_DOUBLE_EQ(record.rl, it->second->rl);
    }
  }
}

}  // namespace
}  // namespace mergescale::search
