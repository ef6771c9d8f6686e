#include "search/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/run_log.hpp"
#include "util/rng.hpp"

namespace mergescale::search {
namespace {

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_archive_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (std::filesystem::path(dir_) / "archive.msca").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

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

/// Deterministic records with unique indices, delivered *shuffled* (the
/// writer must sort), labels cycling through a small set, a sprinkle of
/// infeasible rows, and speedups spread over a wide range so zone maps
/// have something to prune on.
std::vector<explore::EvalResult> synth_records(std::size_t count,
                                               std::uint64_t seed) {
  const std::string apps[] = {"kmeans", "fuzzy", "hop"};
  const std::string growths[] = {"linear", "log"};
  const std::string topologies[] = {"-", "mesh"};
  util::Xoshiro256 rng(seed);
  std::vector<explore::EvalResult> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult r;
    r.index = i;
    r.scenario = "archive-test";
    r.variant = (i % 2) ? core::ModelVariant::kAsymmetric
                        : core::ModelVariant::kSymmetric;
    r.n = 64.0 * static_cast<double>(1 + i % 4);
    r.app = apps[i % 3];
    r.growth = growths[i % 2];
    r.topology = topologies[i % 2];
    r.r = 1.0 + static_cast<double>(i % 5);
    r.rl = (i % 2) ? 4.0 + static_cast<double>(i % 7) : 0.0;
    r.feasible = (i % 11) != 0;
    r.cores = r.feasible ? rng.uniform(1.0, 300.0) : 0.0;
    r.speedup = r.feasible ? rng.uniform(0.5, 200.0) : 0.0;
    records.push_back(std::move(r));
  }
  // Shuffle: the writer's stable index sort is part of the contract.
  for (std::size_t i = count; i > 1; --i) {
    std::swap(records[i - 1],
              records[static_cast<std::size_t>(rng.bounded(i))]);
  }
  return records;
}

std::vector<explore::EvalResult> sorted_by_index(
    std::vector<explore::EvalResult> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const explore::EvalResult& a,
                      const explore::EvalResult& b) { return a.index < b.index; });
  return records;
}

/// Full-scan reference for ArchiveReader::query().
std::vector<explore::EvalResult> reference_query(
    const std::vector<explore::EvalResult>& records,
    const ArchivePredicate& p) {
  std::vector<explore::EvalResult> out;
  for (const auto& r : sorted_by_index(records)) {
    if (p.feasible_only && !r.feasible) continue;
    if (p.min_speedup && !(r.speedup >= *p.min_speedup)) continue;
    if (p.max_speedup && !(r.speedup <= *p.max_speedup)) continue;
    if (p.min_cores && !(r.cores >= *p.min_cores)) continue;
    if (p.max_cores && !(r.cores <= *p.max_cores)) continue;
    if (p.min_n && !(r.n >= *p.min_n)) continue;
    if (p.max_n && !(r.n <= *p.max_n)) continue;
    out.push_back(r);
  }
  return out;
}

void expect_all_equal(const std::vector<explore::EvalResult>& got,
                      const std::vector<explore::EvalResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_equal(got[i], want[i]);
  }
}

TEST_F(ArchiveTest, RoundTripsThroughTheFileSortedByIndex) {
  const auto records = synth_records(1000, 42);
  const ArchiveStats stats = write_archive(path_, records, /*block_rows=*/128);
  EXPECT_EQ(stats.rows, records.size());
  EXPECT_EQ(stats.block_rows, 128u);
  EXPECT_EQ(stats.blocks, (records.size() + 127) / 128);
  EXPECT_EQ(stats.bytes, std::filesystem::file_size(path_));

  const ArchiveReader reader = ArchiveReader::open(path_);
  EXPECT_EQ(reader.row_count(), records.size());
  EXPECT_EQ(reader.stats().blocks, stats.blocks);
  std::uint64_t feasible = 0;
  for (const auto& r : records) feasible += r.feasible ? 1 : 0;
  EXPECT_EQ(reader.feasible_count(), feasible);
  expect_all_equal(reader.load_all(), sorted_by_index(records));
}

TEST_F(ArchiveTest, InMemoryAndFileBackedReadersAgree) {
  const auto records = synth_records(500, 7);
  write_archive(path_, records, 64);
  const ArchiveReader file = ArchiveReader::open(path_);
  const ArchiveReader memory = ArchiveReader::from_records(records, 64);
  expect_all_equal(memory.load_all(), file.load_all());
  expect_all_equal(memory.top_k(10), file.top_k(10));
  expect_all_equal(memory.pareto(explore::CostMetric::kCoreArea),
                   file.pareto(explore::CostMetric::kCoreArea));
}

TEST_F(ArchiveTest, TopKMatchesTheExploreReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto records = synth_records(700, seed);
    const auto archived = sorted_by_index(records);
    const ArchiveReader reader = ArchiveReader::from_records(records, 64);
    for (const std::size_t k : {0u, 1u, 5u, 64u, 700u, 5000u}) {
      expect_all_equal(reader.top_k(k), explore::top_k(archived, k));
    }
  }
}

TEST_F(ArchiveTest, ParetoMatchesTheExploreReferenceOnBothMetrics) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto records = synth_records(600, seed);
    const auto archived = sorted_by_index(records);
    const ArchiveReader reader = ArchiveReader::from_records(records, 64);
    for (const auto metric :
         {explore::CostMetric::kCoreArea, explore::CostMetric::kCoreCount}) {
      expect_all_equal(reader.pareto(metric),
                       explore::pareto_frontier(archived, metric));
    }
  }
}

TEST_F(ArchiveTest, BestMatchesTheExploreReference) {
  const auto records = synth_records(300, 21);
  const auto archived = sorted_by_index(records);
  const ArchiveReader reader = ArchiveReader::from_records(records);
  const auto best = reader.best();
  const explore::EvalResult* want = explore::best_result(archived);
  ASSERT_NE(want, nullptr);
  ASSERT_TRUE(best.has_value());
  expect_equal(*best, *want);

  // All-infeasible archive: best is empty, never fabricated.
  auto infeasible = records;
  for (auto& r : infeasible) {
    r.feasible = false;
    r.cores = 0.0;
    r.speedup = 0.0;
  }
  EXPECT_FALSE(ArchiveReader::from_records(infeasible).best().has_value());
  EXPECT_TRUE(ArchiveReader::from_records(infeasible).top_k(5).empty());
  EXPECT_TRUE(ArchiveReader::from_records({}).load_all().empty());
}

TEST_F(ArchiveTest, PredicateQueriesMatchAFullScan) {
  const auto records = synth_records(900, 1234);
  const ArchiveReader reader = ArchiveReader::from_records(records, 64);
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    ArchivePredicate p;
    if (rng.bounded(2)) p.min_speedup = rng.uniform(0.0, 220.0);
    if (rng.bounded(2)) p.max_speedup = rng.uniform(0.0, 220.0);
    if (rng.bounded(2)) p.min_cores = rng.uniform(0.0, 320.0);
    if (rng.bounded(2)) p.max_cores = rng.uniform(0.0, 320.0);
    if (rng.bounded(2)) p.min_n = rng.uniform(32.0, 512.0);
    if (rng.bounded(2)) p.max_n = rng.uniform(32.0, 512.0);
    p.feasible_only = rng.bounded(2) != 0;
    expect_all_equal(reader.query(p), reference_query(records, p));
  }
}

TEST_F(ArchiveTest, ZoneMapsPruneBlocksForSelectiveQueries) {
  // Speedup grows with the index, so a high min_speedup bound admits
  // only the tail blocks — pruning must be visible, not just possible.
  std::vector<explore::EvalResult> records;
  for (std::size_t i = 0; i < 64 * 16; ++i) {
    explore::EvalResult r;
    r.index = i;
    r.scenario = "prune";
    r.app = "kmeans";
    r.growth = "linear";
    r.n = 64.0;
    r.r = 1.0;
    r.rl = 8.0;
    r.feasible = true;
    r.cores = static_cast<double>(i % 100);
    r.speedup = static_cast<double>(i);
    records.push_back(std::move(r));
  }
  const ArchiveReader reader = ArchiveReader::from_records(records, 64);
  ASSERT_EQ(reader.stats().blocks, 16u);

  ArchivePredicate all;
  EXPECT_EQ(reader.candidate_blocks(all), 16u);

  ArchivePredicate tail;
  tail.min_speedup = 64.0 * 15;  // only the last block qualifies
  EXPECT_EQ(reader.candidate_blocks(tail), 1u);
  expect_all_equal(reader.query(tail), reference_query(records, tail));

  ArchivePredicate none;
  none.min_speedup = 1e9;
  EXPECT_EQ(reader.candidate_blocks(none), 0u);
  EXPECT_TRUE(reader.query(none).empty());
}

TEST_F(ArchiveTest, LoadIndexRangeMatchesAFilteredScan) {
  const auto records = synth_records(777, 5);
  const auto archived = sorted_by_index(records);
  const ArchiveReader reader = ArchiveReader::from_records(records, 64);
  util::Xoshiro256 rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = rng.bounded(800);
    const auto b = rng.bounded(800);
    const std::uint64_t begin = std::min(a, b);
    const std::uint64_t end = std::max(a, b);
    std::vector<explore::EvalResult> want;
    for (const auto& r : archived) {
      if (r.index >= begin && r.index < end) want.push_back(r);
    }
    expect_all_equal(reader.load_index_range(begin, end), want);
  }
  EXPECT_TRUE(reader.load_index_range(5000, 6000).empty());
  EXPECT_TRUE(reader.load_index_range(10, 10).empty());
}

TEST_F(ArchiveTest, NonFiniteValuesArchiveAsInfeasible) {
  explore::EvalResult r;
  r.index = 0;
  r.scenario = "nonfinite";
  r.app = "kmeans";
  r.growth = "linear";
  r.n = 64.0;
  r.r = 4.0;
  r.rl = 16.0;
  r.feasible = true;
  r.cores = std::numeric_limits<double>::quiet_NaN();
  r.speedup = std::numeric_limits<double>::infinity();
  const ArchiveReader reader = ArchiveReader::from_records({r});
  const auto loaded = reader.load_all();
  ASSERT_EQ(loaded.size(), 1u);  // kept, not dropped
  EXPECT_FALSE(loaded[0].feasible);  // mirrors the NDJSON null convention
  EXPECT_DOUBLE_EQ(loaded[0].cores, 0.0);
  EXPECT_DOUBLE_EQ(loaded[0].speedup, 0.0);
  EXPECT_DOUBLE_EQ(loaded[0].r, 4.0);
  EXPECT_EQ(reader.feasible_count(), 0u);
  EXPECT_FALSE(reader.best().has_value());
}

// ---------------------------------------------------------------------------
// Corruption.  The loader's contract: refuse loudly (std::runtime_error
// with a diagnosable message), never crash, never fabricate a record.
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RefusesForeignAndMismatchedHeaders) {
  const auto records = synth_records(100, 3);
  const std::string pristine = encode_archive(records, 32);

  // Intact bytes load.
  EXPECT_EQ(ArchiveReader::from_buffer(pristine).row_count(), 100u);

  // Not an archive at all.
  EXPECT_THROW(ArchiveReader::from_buffer("hello, world — definitely not "
                                          "a columnar archive header"),
               std::runtime_error);
  EXPECT_THROW(ArchiveReader::from_buffer(""), std::runtime_error);

  // Flipped magic / version / schema / header byte: each must refuse.
  for (const std::size_t offset : {0u, 4u, 8u, 17u, 33u, 41u, 57u, 65u, 73u}) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ '\x5A');
    EXPECT_THROW(ArchiveReader::from_buffer(bytes), std::runtime_error)
        << "header offset " << offset;
  }

  // A missing file refuses with the open error, not a crash.
  EXPECT_THROW(ArchiveReader::open(path_ + ".does-not-exist"),
               std::runtime_error);
}

TEST_F(ArchiveTest, FuzzTruncationAlwaysRefuses) {
  const auto records = synth_records(400, 8);
  const std::string pristine = encode_archive(records, 64);
  util::Xoshiro256 rng(4096);
  std::vector<std::size_t> cuts = {0, 1, 75, 76, 77};
  for (int i = 0; i < 60; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.bounded(pristine.size())));
  }
  for (const std::size_t cut : cuts) {
    // The header records the exact file size, so EVERY proper prefix is
    // detectably truncated — no silent partial archive.
    EXPECT_THROW(ArchiveReader::from_buffer(pristine.substr(0, cut)),
                 std::runtime_error)
        << "cut=" << cut;
  }
  // ... and appended garbage is a size mismatch too.
  EXPECT_THROW(ArchiveReader::from_buffer(pristine + "trailing junk"),
               std::runtime_error);
}

TEST_F(ArchiveTest, FuzzBitFlipsNeverCrashAndNeverFabricate) {
  const auto records = synth_records(300, 17);
  const auto archived = sorted_by_index(records);
  const std::string pristine = encode_archive(records, 64);
  std::unordered_map<std::size_t, const explore::EvalResult*> by_index;
  for (const auto& r : archived) by_index.emplace(r.index, &r);

  util::Xoshiro256 rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int flip = 0; flip < flips; ++flip) {
      const auto at = static_cast<std::size_t>(rng.bounded(bytes.size()));
      bytes[at] = static_cast<char>(
          bytes[at] ^ static_cast<char>(1u << rng.bounded(8)));
    }
    try {
      const ArchiveReader reader = ArchiveReader::from_buffer(bytes);
      // Open survived (the flip landed past the eager sections): every
      // query either throws a slice-CRC error or returns genuine
      // records — never silently altered data.
      const auto loaded = reader.load_all();
      ASSERT_EQ(loaded.size(), archived.size());
      for (const auto& r : loaded) {
        const auto it = by_index.find(r.index);
        ASSERT_NE(it, by_index.end())
            << "fabricated record, index " << r.index;
        expect_equal(r, *it->second);
      }
      const auto kept = reader.top_k(10);
      expect_all_equal(kept, explore::top_k(archived, 10));
    } catch (const std::runtime_error&) {
      // Refused loudly: the contract.
    }
  }
}

TEST_F(ArchiveTest, ASliceFlipFailsExactlyTheQueriesThatTouchIt) {
  // Open eagerly checks the header, zone maps, CRC table, and dict —
  // but column slices verify lazily.  Corrupt one payload byte of a
  // column: open succeeds, and the first query to touch that slice
  // throws instead of serving altered data.
  const auto records = synth_records(256, 23);
  std::string bytes = encode_archive(records, 64);
  // Column data starts right after the 76-byte header; byte 100 sits in
  // the index column of block 0.
  bytes[100] = static_cast<char>(bytes[100] ^ '\x01');
  const ArchiveReader reader = ArchiveReader::from_buffer(bytes);
  EXPECT_EQ(reader.row_count(), 256u);  // header intact
  EXPECT_THROW(reader.load_all(), std::runtime_error);
  EXPECT_THROW(reader.load_index_range(0, 10), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Point lookup: find() by design point.
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, FindReturnsTheFirstRowOfEveryDesignPoint) {
  // synth_records repeats its design points every 420 indices, so the
  // archive holds duplicates; find must answer with the first, as
  // RunLog::dedup over the archive's row order would keep it.
  const auto records = synth_records(1000, 5);
  write_archive(path_, records, 64);
  const ArchiveReader file = ArchiveReader::open(path_);
  const ArchiveReader memory = ArchiveReader::from_records(records, 64);
  EXPECT_EQ(file.key_table_ms(), 0.0);  // open() builds nothing
  const auto firsts = RunLog::dedup(sorted_by_index(records));
  ASSERT_LT(firsts.size(), records.size());
  std::unordered_map<std::size_t, std::size_t> first_of;  // index -> first
  for (const auto& record : sorted_by_index(records)) {
    for (const auto& first : firsts) {
      if (DesignKey::of(first) == DesignKey::of(record)) {
        first_of[record.index] = first.index;
        break;
      }
    }
  }
  for (const auto& record : records) {
    for (const ArchiveReader* reader : {&file, &memory}) {
      const auto found = reader->find(DesignKey::of(record));
      ASSERT_TRUE(found.has_value()) << record.index;
      EXPECT_EQ(found->index, first_of.at(record.index));
      EXPECT_TRUE(DesignKey::of(*found) == DesignKey::of(record));
    }
  }
  EXPECT_GT(file.key_table_ms(), 0.0);
}

TEST_F(ArchiveTest, FindMissesEveryOtherPoint) {
  const auto records = synth_records(300, 9);
  const ArchiveReader reader = ArchiveReader::from_records(records, 32);
  for (const auto& record : records) {
    auto probe = [&reader](explore::EvalResult point) {
      return reader.find(DesignKey::of(point)).has_value();
    };
    explore::EvalResult other = record;
    other.rl = -record.rl;  // symmetric rows hold +0.0: -0.0 is another point
    EXPECT_FALSE(probe(other)) << record.index;
    other = record;
    other.app += ";";
    EXPECT_FALSE(probe(other));
    other = record;
    other.n = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(probe(other));
    other = record;
    other.variant = core::ModelVariant::kAsymmetricComm;
    EXPECT_FALSE(probe(other));
    // Fields outside the identity do not matter.
    other = record;
    other.index += 100000;
    other.scenario = "elsewhere";
    other.speedup += 1.0;
    EXPECT_TRUE(probe(other));
  }
  EXPECT_FALSE(ArchiveReader::from_records({}).find(DesignKey{}).has_value());
}

TEST_F(ArchiveTest, ConcurrentFirstFindsBuildOneTable) {
  const auto records = synth_records(2000, 17);
  const ArchiveReader reader = ArchiveReader::from_records(records, 128);
  std::vector<std::thread> threads;
  std::atomic<int> misses{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < records.size();
           i += 4) {
        if (!reader.find(DesignKey::of(records[i]))) misses.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST_F(ArchiveTest, FindRefusesACorruptKeyColumnEveryTime) {
  const auto records = synth_records(256, 23);
  std::string bytes = encode_archive(records, 64);
  // Header (76 bytes) + the 8-byte index column over 256 rows: the
  // variant column of block 0 starts at byte 2124.
  bytes[2124 + 5] = static_cast<char>(bytes[2124 + 5] ^ '\x01');
  const ArchiveReader reader = ArchiveReader::from_buffer(bytes);
  const DesignKey key = DesignKey::of(records[0]);
  EXPECT_THROW(reader.find(key), std::runtime_error);
  // The failed build left no half-built table behind.
  EXPECT_THROW(reader.find(key), std::runtime_error);
  EXPECT_EQ(reader.key_table_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// RunLog integration: load() folds the archive in, load_range() seeks
// only the blocks a shard needs.
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RunLogLoadFoldsTheArchiveInFirst) {
  const auto records = synth_records(200, 77);
  const auto archived = sorted_by_index(records);
  write_archive(RunLog::archive_path(dir_), archived);
  EXPECT_TRUE(RunLog::has_archive(dir_));
  EXPECT_TRUE(RunLog::has_results(dir_));

  // Archive alone.
  expect_all_equal(RunLog::load(dir_), archived);

  // Archive + post-archive log appends: the union, archive first.
  explore::EvalResult extra = archived[0];
  extra.index = 5000;
  extra.r = 777.5;  // a design point the synth corpus never produced
  extra.speedup = 999.0;
  {
    RunLog log(dir_);
    log.append(archived[3]);  // duplicate of an archived row
    log.append(extra);
  }
  const auto loaded = RunLog::load(dir_);
  ASSERT_EQ(loaded.size(), archived.size() + 2);
  expect_equal(loaded[archived.size() + 1], extra);
  // Dedup keys on the design point, keeps first occurrences: the
  // archived duplicate drops, the genuinely new point stays.
  const auto unique = RunLog::dedup(loaded);
  ASSERT_EQ(unique.size(), RunLog::dedup(archived).size() + 1);

  // A corrupt archive refuses loudly instead of silently dropping the
  // bulk of the run's history.
  {
    std::fstream file(RunLog::archive_path(dir_),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    file.put('\x7F');
  }
  EXPECT_THROW(RunLog::load(dir_), std::runtime_error);
}

TEST_F(ArchiveTest, RunLogLoadRangeSeeksOnlyTheShardsBand) {
  const auto records = synth_records(512, 31);
  const auto archived = sorted_by_index(records);
  write_archive(RunLog::archive_path(dir_), archived, 64);
  explore::EvalResult extra = archived[0];
  extra.index = 130;  // an in-range log record joins the band
  {
    RunLog log(dir_);
    log.append(extra);
  }
  const auto band = RunLog::load_range(dir_, 128, 192);
  ASSERT_EQ(band.size(), 65u);  // 64 archived + 1 logged
  for (std::size_t i = 0; i < 64; ++i) {
    expect_equal(band[i], archived[128 + i]);
  }
  expect_equal(band[64], extra);
  EXPECT_TRUE(RunLog::load_range(dir_, 4000, 5000).empty());
}

}  // namespace
}  // namespace mergescale::search
