// Differential test of the typed design-point key against the hexfloat
// string key it replaced: over random records built from edge-case
// values (±0.0, NaNs of both signs and assorted payloads, infinities)
// and separator-laden labels, the two must partition records into
// exactly the same identity classes, and RunLog::dedup must keep exactly
// the records a string-keyed first-occurrence dedup keeps.

#include "search/design_key.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "search/run_log.hpp"
#include "util/rng.hpp"

namespace mergescale::search {
namespace {

/// The string key RunLog used before the typed key: length-prefixed
/// labels, hexfloat doubles.  The oracle.
std::string string_key(const explore::EvalResult& r) {
  std::ostringstream key;
  key << std::hexfloat;
  auto label = [&key](const std::string& text) {
    key << text.size() << ':' << text << ';';
  };
  key << static_cast<int>(r.variant) << ';' << r.n << ';' << r.r << ';'
      << r.rl << ';';
  label(r.app);
  label(r.growth);
  label(r.topology);
  return key.str();
}

std::vector<double> edge_values() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.5,
          64.0,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          nan,
          -nan,
          std::bit_cast<double>(std::uint64_t{0x7FF0000000000001}),  // sNaN
          std::bit_cast<double>(std::uint64_t{0xFFF8DEADBEEF0000}),
          std::bit_cast<double>(std::uint64_t{0x7FFFFFFFFFFFFFFF})};
}

/// Labels that collide under a naive joined key: separators, length
/// digits and prefixes of one another.
const std::vector<std::string>& edge_labels() {
  static const std::vector<std::string> labels = {
      "", "a", "a;", ";", ":", "1:a", "a:1;", "a;1:", "2:a;", "kmeans",
      "kmeans;", "-", "mesh", "1:", ";;"};
  return labels;
}

std::vector<explore::EvalResult> random_records(std::size_t count,
                                                std::uint64_t seed) {
  const std::vector<double> values = edge_values();
  const std::vector<std::string>& labels = edge_labels();
  util::Xoshiro256 rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  std::vector<explore::EvalResult> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult& r = records[i];
    r.index = i;
    r.variant = static_cast<core::ModelVariant>(pick(4));
    // Few distinct values per field, so identity classes hold several
    // members and both verdicts get exercised.
    r.n = values[pick(3) == 0 ? pick(values.size()) : pick(2)];
    r.r = values[pick(values.size())];
    r.rl = values[pick(3) == 0 ? pick(values.size()) : 1];
    r.app = labels[pick(labels.size())];
    r.growth = labels[pick(3) == 0 ? pick(labels.size()) : 0];
    r.topology = labels[pick(3) == 0 ? pick(labels.size()) : 11];
    r.speedup = static_cast<double>(i);
  }
  return records;
}

TEST(DesignKeyTest, MatchesTheStringKeyOnEveryPair) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto records = random_records(400, seed);
    std::vector<std::string> strings;
    for (const auto& record : records) strings.push_back(string_key(record));
    std::size_t equal_pairs = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const DesignKey a = DesignKey::of(records[i]);
      for (std::size_t j = 0; j < records.size(); ++j) {
        const DesignKey b = DesignKey::of(records[j]);
        const bool same = strings[i] == strings[j];
        ASSERT_EQ(a == b, same) << "seed " << seed << ": '" << strings[i]
                                << "' vs '" << strings[j] << "'";
        if (same) {
          ASSERT_EQ(DesignKeyHash{}(a), DesignKeyHash{}(b));
          if (i != j) ++equal_pairs;
        }
      }
    }
    EXPECT_GT(equal_pairs, 0u) << "seed " << seed << " drew no duplicates";
  }
}

TEST(DesignKeyTest, SignedZerosDifferAndNaNsCompareBySignOnly) {
  explore::EvalResult a;
  explore::EvalResult b;
  b.n = -0.0;
  EXPECT_FALSE(DesignKey::of(a) == DesignKey::of(b));
  a.r = std::numeric_limits<double>::quiet_NaN();
  b.n = 0.0;
  b.r = std::bit_cast<double>(std::uint64_t{0x7FF0000000000001});
  EXPECT_TRUE(DesignKey::of(a) == DesignKey::of(b));
  EXPECT_EQ(DesignKeyHash{}(DesignKey::of(a)), DesignKeyHash{}(DesignKey::of(b)));
  b.r = -std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DesignKey::of(a) == DesignKey::of(b));
}

TEST(DesignKeyTest, DedupKeepsWhatTheStringKeyedDedupKeeps) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    const auto records = random_records(2000, seed);
    std::vector<std::size_t> expected;
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (seen.insert(string_key(records[i])).second) expected.push_back(i);
    }
    const auto kept = RunLog::dedup(records);
    ASSERT_EQ(kept.size(), expected.size()) << "seed " << seed;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      EXPECT_EQ(kept[k].index, expected[k]) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mergescale::search
