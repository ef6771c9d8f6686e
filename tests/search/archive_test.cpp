#include "search/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "runtime/thread_team.hpp"
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
  EXPECT_EQ(reader.stats().feasible_rows, feasible);
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

TEST_F(ArchiveTest, CostTiedArchivesRankAsTheExploreReference) {
  // Costs, speedups and indices from small value sets, so every cost
  // recurs in many of the ~40 blocks and ties run through whole rows;
  // a distinct n per record tells tied twins apart.
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    util::Xoshiro256 rng(seed);
    std::vector<explore::EvalResult> records(640);
    for (std::size_t i = 0; i < records.size(); ++i) {
      explore::EvalResult& r = records[i];
      r.index = static_cast<std::size_t>(rng.bounded(200));
      r.scenario = "archive-test";
      r.variant = core::ModelVariant::kAsymmetric;
      r.n = 64.0 + static_cast<double>(i);
      r.app = "kmeans";
      r.growth = "linear";
      r.r = static_cast<double>(1 + rng.bounded(3));
      r.rl = 2.0 * static_cast<double>(rng.bounded(3));
      r.cores = 4.0 * static_cast<double>(1 + rng.bounded(3));
      r.speedup = static_cast<double>(rng.bounded(6));
      r.feasible = rng.bounded(6) != 0;
    }
    const auto archived = sorted_by_index(records);
    const ArchiveReader reader = ArchiveReader::from_records(records, 16);
    for (const auto metric :
         {explore::CostMetric::kCoreArea, explore::CostMetric::kCoreCount}) {
      expect_all_equal(reader.pareto(metric),
                       explore::pareto_frontier(archived, metric));
    }
    // Out of order: a k below one already ranked reads a prefix of the
    // memoized ranking, a k above it ranks afresh.
    for (const std::size_t k : {50u, 1u, 3u, 640u, 50u}) {
      expect_all_equal(reader.top_k(k), explore::top_k(archived, k));
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
  EXPECT_EQ(reader.stats().feasible_rows, 0u);
  EXPECT_FALSE(reader.best().has_value());
}

/// Records for the encoder's determinism check: labels holding commas,
/// quotes and newlines that change every few rows (so each worker's
/// label memo misses often), non-finite numbers, and indices either
/// ascending or shuffled with repeats (the stable-sort path).
std::vector<explore::EvalResult> awkward_records(std::size_t count,
                                                 bool shuffled) {
  const std::string labels[] = {"kmeans", "a,b", "say \"hi\"", "two\nlines",
                                "", "-", "caf\xc3\xa9"};
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  util::Xoshiro256 rng(count + (shuffled ? 1 : 0));
  std::vector<explore::EvalResult> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult& r = records[i];
    r.index = shuffled ? rng.bounded(count / 2 + 1) : i;
    r.scenario = labels[(i / 5) % 7];
    r.app = labels[(i / 3) % 7];
    r.growth = labels[(i / 7) % 7];
    r.topology = labels[(i / 11) % 7];
    r.variant = static_cast<core::ModelVariant>(i % 4);
    r.n = i % 13 == 0 ? specials[i % 4]
                      : 64.0 * static_cast<double>(1 + i % 4);
    r.r = i % 17 == 0 ? specials[(i + 1) % 4]
                      : 1.0 + static_cast<double>(i % 5);
    r.rl = static_cast<double>(i % 9);
    r.feasible = i % 6 != 0;
    r.cores = i % 19 == 0 ? specials[(i + 2) % 4] : rng.uniform(1.0, 300.0);
    r.speedup = i % 23 == 0 ? specials[(i + 3) % 4] : rng.uniform(0.5, 200.0);
    r.from_cache = i % 2 == 0;
  }
  return records;
}

TEST_F(ArchiveTest, EncodedBytesDoNotDependOnTheTeamSize) {
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{4096},
        std::size_t{4097}, std::size_t{3 * 4096 + 17}}) {
    for (const bool shuffled : {false, true}) {
      const auto records = awkward_records(count, shuffled);
      for (const std::uint32_t block_rows : {kDefaultArchiveBlockRows, 7u}) {
        const std::string alone = encode_archive(records, block_rows);
        for (const int size : {1, 2, 3, 5}) {
          runtime::ThreadTeam team(size);
          EXPECT_TRUE(encode_archive(records, block_rows, &team) == alone)
              << count << " records, shuffled " << shuffled << ", blocks of "
              << block_rows << ", team of " << size;
          // write_archive encodes into a buffer it does not zero first.
          write_archive(path_, records, block_rows, &team);
          std::ifstream file(path_, std::ios::binary);
          const std::string written((std::istreambuf_iterator<char>(file)),
                                    std::istreambuf_iterator<char>());
          EXPECT_TRUE(written == alone)
              << count << " records written, team of " << size;
        }
        // And the bytes hold the records: stable index order, non-finite
        // rows archived as infeasible.
        const ArchiveReader reader = ArchiveReader::from_buffer(alone);
        EXPECT_NO_THROW(reader.verify());
        const auto loaded = reader.load_all();
        const auto want = sorted_by_index(records);
        ASSERT_EQ(loaded.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(loaded[i].index, want[i].index);
          EXPECT_EQ(loaded[i].scenario, want[i].scenario);
          EXPECT_EQ(loaded[i].app, want[i].app);
          EXPECT_EQ(loaded[i].growth, want[i].growth);
          EXPECT_EQ(loaded[i].topology, want[i].topology);
          EXPECT_EQ(loaded[i].from_cache, want[i].from_cache);
        }
      }
    }
  }
}

/// 64-bit FNV-1a.  Not a CRC-32 of the file: every section but the
/// columns ends with its own CRC, and a CRC over a message followed by
/// its CRC does not depend on the message.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST_F(ArchiveTest, EncodedBytesArePinned) {
  // Size and digest of two fixed encodings, as the earlier serial,
  // byte-at-a-time encoder wrote them: zone maps, slice CRCs and
  // dictionary ids included.  An intended format change updates these
  // together with kVersion.
  struct Pin {
    std::size_t count;
    bool shuffled;
    std::uint32_t block_rows;
    std::size_t size;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{3 * 4096 + 17, true, kDefaultArchiveBlockRows,
                             825067, 0x9570BFD52DCE1BF7ull},
                         Pin{4097, false, 7, 344971, 0xDFB2D670F5A2CA43ull}}) {
    runtime::ThreadTeam team(3);
    const std::string bytes = encode_archive(
        awkward_records(pin.count, pin.shuffled), pin.block_rows, &team);
    EXPECT_EQ(bytes.size(), pin.size) << pin.count;
    EXPECT_EQ(fnv1a(bytes), pin.digest) << pin.count;
  }
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
}

TEST_F(ArchiveTest, VerifyChecksEverySlice) {
  const auto records = synth_records(256, 23);
  const std::string pristine = encode_archive(records, 64);
  EXPECT_NO_THROW(ArchiveReader::from_buffer(pristine).verify());
  // Flip the last column byte: the speedup of the last row, in the last
  // block — a slice best() and top_k() may never touch.  76 header bytes
  // plus 67 column bytes per row precede the zone maps.
  std::string bytes = pristine;
  const std::size_t last = 76 + 256 * 67 - 1;
  bytes[last] = static_cast<char>(bytes[last] ^ '\x01');
  const ArchiveReader reader = ArchiveReader::from_buffer(bytes);
  EXPECT_THROW(reader.verify(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Point lookup: find() by index and design point.
// ---------------------------------------------------------------------------

/// synth_records renumbered so runs of up to 7 rows share an index (a
/// run may straddle a block boundary) and some rows repeat an earlier
/// row's design point under the same index, with another speedup.
std::vector<explore::EvalResult> shared_index_records(std::size_t count,
                                                      std::uint64_t seed) {
  auto records = sorted_by_index(synth_records(count, seed));
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].index = 3 * (i / 7) + (i % 7 == 6 ? 1 : 0);
    if (i % 7 == 5) {
      const double speedup = records[i].speedup + 1.0;
      records[i] = records[i - 2];
      records[i].speedup = speedup;
    }
  }
  return records;
}

TEST_F(ArchiveTest, FindReturnsTheFirstRowOfAnIndexHoldingTheKey) {
  const auto records = shared_index_records(1000, 5);
  write_archive(path_, records, 16);
  const ArchiveReader file = ArchiveReader::open(path_);
  const ArchiveReader memory = ArchiveReader::from_records(records, 16);
  for (const auto& record : records) {
    // The archive keeps input order among equal indices, so the first
    // record with this index and key is the row find() must return.
    const auto first = std::find_if(
        records.begin(), records.end(), [&](const explore::EvalResult& r) {
          return r.index == record.index &&
                 DesignKey::of(r) == DesignKey::of(record);
        });
    for (const ArchiveReader* reader : {&file, &memory}) {
      const auto found = reader->find(record.index, DesignKey::of(record));
      ASSERT_TRUE(found.has_value()) << record.index;
      expect_all_equal({*found}, {*first});
    }
  }
  // Indices no row holds: below, between and past the held ones.
  const DesignKey key = DesignKey::of(records[0]);
  for (const std::uint64_t index : {std::uint64_t{2}, std::uint64_t{5},
                                    records.back().index + 1,
                                    std::uint64_t{1} << 40}) {
    EXPECT_FALSE(file.find(index, key).has_value()) << index;
  }
}

TEST_F(ArchiveTest, FindMissesEveryOtherPoint) {
  const auto records = synth_records(300, 9);
  const ArchiveReader reader = ArchiveReader::from_records(records, 32);
  for (const auto& record : records) {
    auto probe = [&](explore::EvalResult point) {
      return reader.find(record.index, DesignKey::of(point)).has_value();
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
    other.scenario = "elsewhere";
    other.speedup += 1.0;
    EXPECT_TRUE(probe(other));
    // The point's row is found only under its own index.
    EXPECT_FALSE(
        reader.find(record.index + 420, DesignKey::of(record)).has_value());
  }
  EXPECT_FALSE(
      ArchiveReader::from_records({}).find(0, DesignKey{}).has_value());
}

TEST_F(ArchiveTest, ConcurrentFindsSeeEveryRow) {
  const auto records = synth_records(2000, 17);
  const ArchiveReader reader = ArchiveReader::from_records(records, 128);
  std::vector<std::thread> threads;
  std::atomic<int> misses{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < records.size();
           i += 4) {
        if (!reader.find(records[i].index, DesignKey::of(records[i]))) {
          misses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST_F(ArchiveTest, FindRefusesACorruptColumnEveryTime) {
  const auto records = synth_records(256, 23);
  const std::string pristine = encode_archive(records, 64);
  // Header (76 bytes) + the 8-byte index column over 256 rows: the
  // variant column of block 0 starts at byte 2124.
  for (const std::size_t at :
       {std::size_t{76 + 5 * 8}, std::size_t{2124 + 5}}) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ '\x01');
    const ArchiveReader reader = ArchiveReader::from_buffer(bytes);
    const DesignKey key = DesignKey::of(sorted_by_index(records)[5]);
    EXPECT_THROW(reader.find(5, key), std::runtime_error) << at;
    EXPECT_THROW(reader.find(5, key), std::runtime_error) << at;
  }
}

TEST_F(ArchiveTest, LoadAllFromAnIndexIsAFilteredLoadAll) {
  const auto records = shared_index_records(1000, 5);
  const std::string pristine = encode_archive(records, 16);
  const ArchiveReader reader = ArchiveReader::from_buffer(pristine);
  const auto all = reader.load_all();
  ASSERT_EQ(all.size(), records.size());
  const auto from = [&all](std::uint64_t min_index) {
    std::vector<explore::EvalResult> out;
    std::copy_if(all.begin(), all.end(), std::back_inserter(out),
                 [&](const explore::EvalResult& r) {
                   return r.index >= min_index;
                 });
    return out;
  };

  // Bounds at the first row of a block whose index the block before
  // does not hold, mid-block, inside a run of repeated indices that
  // straddles a block boundary, at an index no row holds, and past
  // index_end().
  std::uint64_t boundary = 0, mid_block = 0, straddling = 0;
  for (std::size_t b = 1; b * 16 < all.size(); ++b) {
    const std::size_t row = b * 16;
    if (all[row].index != all[row - 1].index && boundary == 0) {
      boundary = all[row].index;
    }
    if (all[row].index == all[row - 1].index && straddling == 0) {
      straddling = all[row].index;
    }
    if (row + 8 < all.size() && all[row + 8].index != all[row + 7].index &&
        mid_block == 0) {
      mid_block = all[row + 8].index;
    }
  }
  ASSERT_NE(boundary, 0u);
  ASSERT_NE(mid_block, 0u);
  ASSERT_NE(straddling, 0u);
  const std::uint64_t unheld = 3 * 50 + 2;  // shared_index_records skips 3q+2
  const std::uint64_t end = reader.index_end();
  ASSERT_EQ(end, all.back().index + 1);
  for (const std::uint64_t min_index :
       {std::uint64_t{0}, boundary, mid_block, straddling, unheld,
        all.back().index, end, end + 1000}) {
    const auto want = from(min_index);
    if (min_index != 0 && min_index <= all.back().index) {
      ASSERT_FALSE(want.empty()) << min_index;
      ASSERT_LT(want.size(), all.size()) << min_index;
    }
    expect_all_equal(reader.load_all(min_index), want);
  }

  // Pruning: a flipped byte in block 0's index slice fails a full load,
  // but a bound inside the last block never reads block 0.
  std::string bytes = pristine;
  bytes[76 + 5 * 8] = static_cast<char>(bytes[76 + 5 * 8] ^ '\x01');
  const ArchiveReader corrupt = ArchiveReader::from_buffer(bytes);
  EXPECT_THROW(corrupt.load_all(), std::runtime_error);
  const std::uint64_t last_block = all[(all.size() - 1) / 16 * 16 + 3].index;
  const auto tail = corrupt.load_all(last_block);
  ASSERT_FALSE(tail.empty());
  expect_all_equal(tail, from(last_block));
}

// ---------------------------------------------------------------------------
// RunLog integration: load() reads the archive first.
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

}  // namespace
}  // namespace mergescale::search
