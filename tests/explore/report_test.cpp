#include "explore/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string_view>

namespace mergescale::explore {
namespace {

EvalResult point(std::size_t index, double r, double rl, double cores,
                 double speedup, bool feasible = true) {
  EvalResult result;
  result.index = index;
  result.scenario = "hand";
  result.app = "app";
  result.growth = "linear";
  result.r = r;
  result.rl = rl;
  result.cores = cores;
  result.speedup = speedup;
  result.feasible = feasible;
  return result;
}

/// Hand-checked 5-point set (plus one infeasible):
///   A idx0: area 1, 256 cores, speedup 10
///   B idx1: area 2, 128 cores, speedup 14
///   C idx2: area 4,  64 cores, speedup 12   (area-dominated by B)
///   D idx3: area 8,  32 cores, speedup 20
///   E idx4: area 8,  32 cores, speedup 18   (equal-cost twin of D)
///   F idx5: infeasible, never reported
std::vector<EvalResult> hand_set() {
  return {point(0, 1, 0, 256, 10), point(1, 2, 0, 128, 14),
          point(2, 4, 0, 64, 12),  point(3, 8, 0, 32, 20),
          point(4, 8, 0, 32, 18),  point(5, 64, 0, 0, 0, false)};
}

TEST(BestResult, PicksHighestFeasibleSpeedup) {
  const auto results = hand_set();
  const EvalResult* best = best_result(results);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->index, 3u);
  EXPECT_DOUBLE_EQ(best->speedup, 20.0);
}

TEST(BestResult, NullWhenNothingFeasible) {
  std::vector<EvalResult> results{point(0, 1, 0, 0, 0, false)};
  EXPECT_EQ(best_result(results), nullptr);
  EXPECT_EQ(best_result({}), nullptr);
}

TEST(TopK, SpeedupDescendingSkippingInfeasible) {
  const auto top = top_k(hand_set(), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 3u);  // 20
  EXPECT_EQ(top[1].index, 4u);  // 18
  EXPECT_EQ(top[2].index, 1u);  // 14
}

TEST(TopK, KLargerThanFeasibleSetReturnsAllFeasible) {
  EXPECT_EQ(top_k(hand_set(), 100).size(), 5u);
}

TEST(ParetoFrontier, ByCoreAreaKeepsStrictImprovements) {
  const auto frontier = pareto_frontier(hand_set(), CostMetric::kCoreArea);
  // A (1, 10) → B (2, 14) → D (8, 20); C dominated by B, E by D.
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0].index, 0u);
  EXPECT_EQ(frontier[1].index, 1u);
  EXPECT_EQ(frontier[2].index, 3u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].speedup, frontier[i - 1].speedup);
    EXPECT_GT(cost_of(frontier[i], CostMetric::kCoreArea),
              cost_of(frontier[i - 1], CostMetric::kCoreArea));
  }
}

TEST(ParetoFrontier, ByCoreCountCollapsesToTheCheapestBest) {
  // Under core-count cost, D (32 cores, speedup 20) dominates everything:
  // all other points have both more cores and less speedup.
  const auto frontier = pareto_frontier(hand_set(), CostMetric::kCoreCount);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].index, 3u);
}

TEST(CostOf, AreaIsLargestCore) {
  EXPECT_DOUBLE_EQ(cost_of(point(0, 4, 0, 64, 1), CostMetric::kCoreArea), 4.0);
  EXPECT_DOUBLE_EQ(cost_of(point(0, 4, 32, 60, 1), CostMetric::kCoreArea),
                   32.0);
  EXPECT_DOUBLE_EQ(cost_of(point(0, 4, 0, 64, 1), CostMetric::kCoreCount),
                   64.0);
}

TEST(Report, TableAndCsvCoverEveryResult) {
  const auto results = hand_set();
  const util::Table table = to_table(results);
  EXPECT_EQ(table.rows(), results.size());
  EXPECT_EQ(table.columns(), 12u);

  std::ostringstream csv;
  write_csv(csv, results);
  // Header plus one line per result.
  std::size_t lines = 0;
  for (char c : csv.str()) lines += (c == '\n');
  EXPECT_EQ(lines, results.size() + 1);
  EXPECT_NE(csv.str().find("scenario,variant,n,app"), std::string::npos);
}

TEST(Report, NdjsonEmitsOneObjectPerResult) {
  const auto results = hand_set();
  std::ostringstream os;
  write_ndjson(os, results);
  std::size_t lines = 0;
  for (char c : os.str()) lines += (c == '\n');
  EXPECT_EQ(lines, results.size());
  EXPECT_NE(os.str().find("\"variant\":\"symmetric\""), std::string::npos);
  EXPECT_NE(os.str().find("\"feasible\":false"), std::string::npos);
}

/// Minimal RFC-4180 CSV reader (quotes, escaped quotes, embedded commas
/// and newlines) — just enough to verify the writer round-trips.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows(1);
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      rows.back().push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      rows.back().push_back(std::move(field));
      field.clear();
      rows.emplace_back();
    } else {
      field.push_back(c);
    }
  }
  if (rows.back().empty()) rows.pop_back();  // trailing newline
  return rows;
}

TEST(Report, CsvRoundTripsFieldsWithCommasAndQuotes) {
  EvalResult tricky = point(0, 2, 0, 128, 14);
  tricky.scenario = "sweep, the \"big\" one";
  tricky.app = "app\nwith newline";
  tricky.growth = "a,b\"c\"";
  std::ostringstream os;
  write_csv(os, {tricky});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 2u);  // header + one record
  ASSERT_EQ(rows[1].size(), 12u);
  EXPECT_EQ(rows[1][0], tricky.scenario);
  EXPECT_EQ(rows[1][3], tricky.app);
  EXPECT_EQ(rows[1][4], tricky.growth);
}

TEST(Report, EmptySweepsProduceHeaderOnlyCsvAndEmptyNdjson) {
  std::ostringstream csv;
  write_csv(csv, {});
  const auto rows = parse_csv(csv.str());
  ASSERT_EQ(rows.size(), 1u);  // header only
  EXPECT_EQ(rows[0].size(), 12u);
  EXPECT_EQ(rows[0][0], "scenario");

  std::ostringstream ndjson;
  write_ndjson(ndjson, {});
  EXPECT_TRUE(ndjson.str().empty());

  // The aggregations tolerate empty input too.
  EXPECT_EQ(best_result({}), nullptr);
  EXPECT_TRUE(top_k({}, 3).empty());
  EXPECT_TRUE(pareto_frontier({}, CostMetric::kCoreArea).empty());
}

TEST(Report, StrategyComparisonReportsGapsAgainstTheBaseline) {
  StrategySummary baseline{"exhaustive", 1000, 200.0, 1000, true};
  StrategySummary good{"hill-climb", 100, 200.0, 40, true};
  StrategySummary never{"random", 100, 150.0, 0, false};
  const util::Table table = strategy_comparison(baseline, {good, never});
  ASSERT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.at(0, 0), "exhaustive");
  EXPECT_EQ(table.at(1, 0), "hill-climb");
  EXPECT_EQ(table.at(1, 2), "10.0");   // 100 / 1000 evaluations
  EXPECT_EQ(table.at(1, 4), "0.00");   // no gap
  EXPECT_EQ(table.at(1, 5), "40");
  EXPECT_EQ(table.at(2, 4), "25.00");  // (200 - 150) / 200
  EXPECT_EQ(table.at(2, 5), "-");      // never reached 1%
}

TEST(Report, StrategyComparisonDistinguishesImmediateFromNever) {
  // 0 evaluations-to-1% is a real value (a warm resume can start inside
  // the band); only `converged == false` may render as "-".
  StrategySummary baseline{"exhaustive", 1000, 200.0, 1000, true};
  StrategySummary immediate{"resumed", 0, 200.0, 0, true};
  StrategySummary never{"random", 100, 150.0, 0, false};
  const util::Table table = strategy_comparison(baseline, {immediate, never});
  EXPECT_EQ(table.at(1, 5), "0");
  EXPECT_EQ(table.at(2, 5), "-");
}

TEST(Hypervolume, MatchesHandComputedArea) {
  // Area frontier of hand_set(): A(1, 10), B(2, 14), D(8, 20); C is
  // dominated and E is D's slower twin.  Against ref cost 16:
  //   (2−1)·10 + (8−2)·14 + (16−8)·20 = 254.
  const double hv = hypervolume(hand_set(), CostMetric::kCoreArea, 16.0);
  EXPECT_DOUBLE_EQ(hv, 254.0);
  // Dominated points contribute nothing: the reduced frontier agrees.
  const auto frontier = pareto_frontier(hand_set(), CostMetric::kCoreArea);
  EXPECT_DOUBLE_EQ(hypervolume(frontier, CostMetric::kCoreArea, 16.0), hv);
}

TEST(Hypervolume, ClipsAtTheReferenceAndHandlesEmpty) {
  // Ref cost 4 leaves only A and B inside: (2−1)·10 + (4−2)·14 = 38.
  EXPECT_DOUBLE_EQ(hypervolume(hand_set(), CostMetric::kCoreArea, 4.0),
                   38.0);
  // A reference at or below the cheapest point dominates nothing.
  EXPECT_DOUBLE_EQ(hypervolume(hand_set(), CostMetric::kCoreArea, 1.0),
                   0.0);
  EXPECT_DOUBLE_EQ(hypervolume({}, CostMetric::kCoreArea, 16.0), 0.0);
}

TEST(Report, ArchiveSummarySharesSumToTheHypervolume) {
  const util::Table table =
      archive_summary(hand_set(), CostMetric::kCoreArea, 16.0);
  ASSERT_EQ(table.rows(), 3u);  // A, B, D
  EXPECT_EQ(table.at(0, 0), "1");
  EXPECT_EQ(table.at(1, 0), "2");
  EXPECT_EQ(table.at(2, 0), "8");
  double total = 0.0;
  for (std::size_t row = 0; row < table.rows(); ++row) {
    total += std::stod(table.at(row, 2));
  }
  EXPECT_DOUBLE_EQ(total,
                   hypervolume(hand_set(), CostMetric::kCoreArea, 16.0));
}

// ---------------------------------------------------------------------------
// Byte-exact writer oracle.  The reference writers below are the
// original snprintf/ostringstream implementations of write_csv
// (to_table(results).to_csv()) and write_ndjson, kept here verbatim in
// behaviour; the streaming writers must reproduce their bytes for any
// input.  One deliberate difference: the original rendered "%.3f" into
// a 64-byte buffer, silently truncating speedups of 1e59 and up, and
// the reference uses a buffer that fits any double.
// ---------------------------------------------------------------------------

std::string ref_compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string ref_fixed(double value, int precision) {
  char buf[400];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string ref_precise(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ref_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string q = "\"";
  for (char ch : s) {
    if (ch == '"') q += '"';
    q += ch;
  }
  q += '"';
  return q;
}

std::string ref_json_escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string reference_csv(const std::vector<EvalResult>& results) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scenario", "variant", "n", "app", "growth", "topology",
                  "r", "rl", "cores", "feasible", "speedup", "cached"});
  for (const auto& result : results) {
    rows.push_back({result.scenario,
                    std::string(core::model_variant_name(result.variant)),
                    ref_compact(result.n), result.app, result.growth,
                    result.topology, ref_compact(result.r),
                    ref_compact(result.rl), ref_compact(result.cores),
                    result.feasible ? "yes" : "no",
                    ref_fixed(result.speedup, 3),
                    result.from_cache ? "yes" : "no"});
  }
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << ref_quote(row[c]);
    }
    out << '\n';
  }
  return out.str();
}

std::string reference_ndjson(const std::vector<EvalResult>& results) {
  std::string all;
  for (const auto& result : results) {
    std::ostringstream line;
    line << "{\"index\":" << result.index
         << ",\"scenario\":\"" << ref_json_escape(result.scenario) << '"'
         << ",\"variant\":\"" << core::model_variant_name(result.variant)
         << '"'
         << ",\"n\":" << ref_precise(result.n)
         << ",\"app\":\"" << ref_json_escape(result.app) << '"'
         << ",\"growth\":\"" << ref_json_escape(result.growth) << '"'
         << ",\"topology\":\"" << ref_json_escape(result.topology) << '"'
         << ",\"r\":" << ref_precise(result.r)
         << ",\"rl\":" << ref_precise(result.rl)
         << ",\"cores\":" << ref_precise(result.cores)
         << ",\"feasible\":" << (result.feasible ? "true" : "false")
         << ",\"speedup\":" << ref_precise(result.speedup)
         << ",\"cached\":" << (result.from_cache ? "true" : "false")
         << "}\n";
    all += line.str();
  }
  return all;
}

/// Doubles that stress the renderers: signed zeros and NaNs, infinities,
/// subnormals, extremes, rounding boundaries, fractional sizes, plus
/// random bit patterns and random multiples of 1/8.
double stress_double(std::mt19937_64& rng) {
  static const double kSpecial[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 2.2250738585072009e-308,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      1e300, -1e300, 1e-300, -1e-300, 0.0005, 0.0015, 2.5, 6.25, 0.1,
      123456789.5, 999999999.5, 1e21, 2048.0, 1.0 / 3.0, 42.6666666666666667};
  switch (rng() % 3) {
    case 0: return kSpecial[rng() % std::size(kSpecial)];
    case 1: {
      const std::uint64_t bits = rng();
      double value;
      std::memcpy(&value, &bits, sizeof value);
      return value;
    }
    default:
      return static_cast<double>(static_cast<std::int64_t>(rng() % 40000) -
                                 8000) /
             8.0;
  }
}

std::string stress_label(std::mt19937_64& rng) {
  static const char* const kLabels[] = {
      "", "kmeans", "a,b", "say \"hi\"", "two\nlines", "\"", ",", "\n",
      "back\\slash", "tab\there", "cr\rlf", "\x01\x1f\x7f", "caf\xc3\xa9",
      "\"quoted, with comma\"\n"};
  std::string label = kLabels[rng() % std::size(kLabels)];
  if (rng() % 4 == 0) label.push_back(static_cast<char>(rng() % 0x20));
  return label;
}

EvalResult stress_record(std::mt19937_64& rng) {
  static const core::ModelVariant kVariants[] = {
      core::ModelVariant::kSymmetric, core::ModelVariant::kAsymmetric,
      core::ModelVariant::kSymmetricComm, core::ModelVariant::kAsymmetricComm};
  EvalResult result;
  result.index = rng() % 5 == 0 ? SIZE_MAX : static_cast<std::size_t>(rng());
  result.scenario = stress_label(rng);
  result.variant = kVariants[rng() % 4];
  result.n = stress_double(rng);
  result.app = stress_label(rng);
  result.growth = stress_label(rng);
  result.topology = stress_label(rng);
  result.r = stress_double(rng);
  result.rl = stress_double(rng);
  result.feasible = rng() % 2 == 0;
  result.cores = stress_double(rng);
  result.speedup = stress_double(rng);
  result.from_cache = rng() % 2 == 0;
  return result;
}

std::string csv_of(const std::vector<EvalResult>& results) {
  std::ostringstream os;
  write_csv(os, results);
  return os.str();
}

std::string ndjson_of(const std::vector<EvalResult>& results) {
  std::ostringstream os;
  write_ndjson(os, results);
  return os.str();
}

TEST(ReportOracle, WritersMatchTheReferenceByteForByte) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<EvalResult> results(1 + rng() % 300);
    for (auto& result : results) result = stress_record(rng);
    ASSERT_EQ(csv_of(results), reference_csv(results)) << "seed " << seed;
    ASSERT_EQ(ndjson_of(results), reference_ndjson(results))
        << "seed " << seed;
  }
}

TEST(ReportOracle, EmptyInputMatchesTheReference) {
  EXPECT_EQ(csv_of({}), reference_csv({}));
  EXPECT_EQ(ndjson_of({}), reference_ndjson({}));
}

TEST(ReportOracle, ChunkBoundariesAndOversizedCellsMatchTheReference) {
  // Several MiB of rows cross the writers' chunk boundary at every
  // offset class, and a label larger than a whole chunk takes the
  // direct-write path mid-row.
  std::mt19937_64 rng(99);
  std::vector<EvalResult> results(15000);
  for (auto& result : results) result = stress_record(rng);
  results[12345].scenario.assign(3u << 20, 'x');
  results[12345].scenario[1000] = ',';
  results[11000].app.assign((1u << 20) + 7, '"');
  results[14000].growth.assign((2u << 20) - 3, '\x02');
  EXPECT_TRUE(csv_of(results) == reference_csv(results));
  EXPECT_TRUE(ndjson_of(results) == reference_ndjson(results));
}

TEST(ReportOracle, BlockRenderingMatchesTheReferenceForEveryTeamSize) {
  // Row counts around the 4096-row render block, rendered by teams that
  // leave the last round's blocks partly or wholly empty; stress records
  // carry labels with commas, quotes and newlines and non-finite numbers.
  std::mt19937_64 rng(2024);
  std::vector<EvalResult> pool(3 * 4096 + 17);
  for (auto& result : pool) result = stress_record(rng);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{4096},
        std::size_t{4097}, pool.size()}) {
    const std::vector<EvalResult> results(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
    const std::string csv = reference_csv(results);
    const std::string ndjson = reference_ndjson(results);
    for (const int size : {1, 2, 3, 5}) {
      runtime::ThreadTeam team(size);
      std::ostringstream csv_out;
      write_csv(csv_out, results, &team);
      EXPECT_TRUE(csv_out.str() == csv)
          << count << " rows, team of " << size;
      std::ostringstream ndjson_out;
      write_ndjson(ndjson_out, results, &team);
      EXPECT_TRUE(ndjson_out.str() == ndjson)
          << count << " rows, team of " << size;
    }
  }
}

// ---------------------------------------------------------------------------
// Ranking oracle: top_k / pareto_frontier against naive copy-and-sort
// references (stable sorts of whole records), over inputs with heavy
// ties in speedup, cost and index.
// ---------------------------------------------------------------------------

std::vector<EvalResult> feasible_copy(const std::vector<EvalResult>& results) {
  std::vector<EvalResult> feasible;
  for (const auto& result : results) {
    if (result.feasible) feasible.push_back(result);
  }
  return feasible;
}

bool ref_better(const EvalResult& a, const EvalResult& b) {
  if (a.speedup != b.speedup) return a.speedup > b.speedup;
  return a.index < b.index;
}

std::vector<EvalResult> reference_top_k(const std::vector<EvalResult>& results,
                                        std::size_t k) {
  std::vector<EvalResult> feasible = feasible_copy(results);
  std::stable_sort(feasible.begin(), feasible.end(), ref_better);
  feasible.resize(std::min(k, feasible.size()));
  return feasible;
}

std::vector<EvalResult> reference_frontier(
    const std::vector<EvalResult>& results, CostMetric metric) {
  std::vector<EvalResult> feasible = feasible_copy(results);
  std::stable_sort(feasible.begin(), feasible.end(),
                   [metric](const EvalResult& a, const EvalResult& b) {
                     const double ca = cost_of(a, metric);
                     const double cb = cost_of(b, metric);
                     if (ca != cb) return ca < cb;
                     return ref_better(a, b);
                   });
  std::vector<EvalResult> frontier;
  for (const auto& result : feasible) {
    if (frontier.empty()) {
      frontier.push_back(result);
    } else if (cost_of(result, metric) != cost_of(frontier.back(), metric) &&
               result.speedup > frontier.back().speedup) {
      frontier.push_back(result);
    }
  }
  return frontier;
}

double reference_hypervolume(const std::vector<EvalResult>& frontier,
                             CostMetric metric, double ref_cost) {
  double volume = 0.0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const double cost = cost_of(frontier[i], metric);
    if (cost >= ref_cost) break;
    const double next =
        i + 1 < frontier.size()
            ? std::min(cost_of(frontier[i + 1], metric), ref_cost)
            : ref_cost;
    volume += (next - cost) * frontier[i].speedup;
  }
  return volume;
}

/// Every field, so a test notices which of two tied twins came back.
void expect_same_records(const std::vector<EvalResult>& got,
                         const std::vector<EvalResult>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const EvalResult& a = got[i];
    const EvalResult& b = want[i];
    EXPECT_TRUE(a.index == b.index && a.scenario == b.scenario &&
                a.variant == b.variant && a.n == b.n && a.app == b.app &&
                a.growth == b.growth && a.topology == b.topology &&
                a.r == b.r && a.rl == b.rl && a.feasible == b.feasible &&
                a.cores == b.cores && a.speedup == b.speedup &&
                a.from_cache == b.from_cache)
        << what << ": record " << i << " is " << a.scenario << " (index "
        << a.index << "), want " << b.scenario << " (index " << b.index
        << ")";
  }
}

/// Records drawn from small value sets, so speedups, costs and indices
/// tie often; every record gets a unique scenario label.
std::vector<EvalResult> tied_records(std::mt19937_64& rng, std::size_t count) {
  std::vector<EvalResult> results(count);
  for (std::size_t i = 0; i < count; ++i) {
    EvalResult& result = results[i];
    result.index = rng() % (count / 2 + 1);  // duplicates, shuffled
    result.scenario = "rec" + std::to_string(i);
    result.app = "app";
    result.growth = "linear";
    result.r = static_cast<double>(1 + rng() % 6);
    result.rl = rng() % 3 == 0 ? 0.0 : static_cast<double>(rng() % 12);
    result.cores = static_cast<double>(1 + rng() % 10) / 2.0;
    result.speedup = rng() % 7 == 0 ? -0.0 : static_cast<double>(rng() % 9);
    result.feasible = rng() % 5 != 0;
    if (!result.feasible) result.speedup = 100.0;  // must never win
  }
  return results;
}

TEST(RankingOracle, TopKMatchesTheStableSortReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto results = tied_records(rng, rng() % 120);
    const std::size_t feasible = feasible_copy(results).size();
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          feasible, feasible + 10}) {
      expect_same_records(top_k(results, k), reference_top_k(results, k),
                          "seed " + std::to_string(seed) + " k " +
                              std::to_string(k));
    }
  }
}

TEST(RankingOracle, ParetoFrontierHypervolumeAndSummaryMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto results = tied_records(rng, rng() % 120);
    for (CostMetric metric : {CostMetric::kCoreArea, CostMetric::kCoreCount}) {
      const std::string what =
          "seed " + std::to_string(seed) + " metric " +
          (metric == CostMetric::kCoreArea ? "area" : "cores");
      const auto want = reference_frontier(results, metric);
      expect_same_records(pareto_frontier(results, metric), want, what);

      const double ref_cost = 9.0;  // clips some frontiers
      EXPECT_EQ(hypervolume(results, metric, ref_cost),
                reference_hypervolume(want, metric, ref_cost))
          << what;

      const util::Table summary = archive_summary(results, metric, ref_cost);
      ASSERT_EQ(summary.rows(), want.size()) << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const double cost = cost_of(want[i], metric);
        double share = 0.0;
        if (cost < ref_cost) {
          const double next =
              i + 1 < want.size()
                  ? std::min(cost_of(want[i + 1], metric), ref_cost)
                  : ref_cost;
          share = (next - cost) * want[i].speedup;
        }
        EXPECT_EQ(summary.at(i, 0), ref_compact(cost)) << what;
        EXPECT_EQ(summary.at(i, 1), ref_fixed(want[i].speedup, 3)) << what;
        EXPECT_EQ(summary.at(i, 2), ref_fixed(share, 3)) << what;
        EXPECT_EQ(summary.at(i, 8), ref_compact(want[i].r)) << what;
        EXPECT_EQ(summary.at(i, 9), ref_compact(want[i].rl)) << what;
      }
    }
  }
}

/// Checks summarize() against best_result, top_k and pareto_frontier at
/// team sizes 1-4: the same best record, and byte-equal texts.
void expect_summary_matches(const std::vector<EvalResult>& results,
                            const std::string& what) {
  const std::size_t feasible = feasible_copy(results).size();
  for (int threads = 1; threads <= 4; ++threads) {
    runtime::ThreadTeam team(threads);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          feasible, feasible + 10}) {
      for (CostMetric metric :
           {CostMetric::kCoreArea, CostMetric::kCoreCount}) {
        const std::string where = what + " threads " +
                                  std::to_string(threads) + " k " +
                                  std::to_string(k) + " metric " +
                                  std::string(cost_metric_label(metric));
        const Summary summary = summarize(results, k, metric, &team);
        const EvalResult* best = best_result(results);
        EXPECT_EQ(summary.best, best) << where;
        if (best != nullptr && summary.best != nullptr) {
          EXPECT_EQ(best_line(*summary.best), best_line(*best)) << where;
        }
        EXPECT_EQ(top_k_text(summary.top), top_k_text(top_k(results, k)))
            << where;
        EXPECT_EQ(pareto_text(summary.frontier, metric),
                  pareto_text(pareto_frontier(results, metric), metric))
            << where;
      }
    }
  }
}

TEST(RankingOracle, SummarizeMatchesTheSerialReductionsForEveryTeamSize) {
  // Equal speedups, indices repeated at two positions (as after a
  // --merge-from fold) and -0.0 speedups, split across every team.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    expect_summary_matches(tied_records(rng, rng() % 400),
                           "seed " + std::to_string(seed));
  }
  // An index at two positions with equal speedups: the earlier wins.
  std::vector<EvalResult> twins;
  for (std::size_t i = 0; i < 9; ++i) {
    twins.push_back(point(i % 3, 1.0 + i % 2, 0.0, 4.0, 7.0));
    twins.back().scenario = "twin" + std::to_string(i);
  }
  expect_summary_matches(twins, "twins");
  // Nothing feasible: no best, empty tables.
  std::vector<EvalResult> infeasible;
  for (std::size_t i = 0; i < 11; ++i) {
    infeasible.push_back(point(i, 1.0, 2.0, 3.0, 5.0, /*feasible=*/false));
  }
  expect_summary_matches(infeasible, "infeasible");
  expect_summary_matches({}, "empty");
  // -0.0 and NaN costs under both metrics: -0.0 is one cost with 0.0,
  // NaN is never kept.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<EvalResult> odd_costs;
  for (std::size_t i = 0; i < 24; ++i) {
    const double r = i % 4 == 0 ? -0.0 : i % 4 == 1 ? nan : 0.0;
    const double cores = i % 3 == 0 ? -0.0 : i % 3 == 1 ? nan : 2.0;
    odd_costs.push_back(point(i % 7, r, i % 4 == 3 ? 1.0 : 0.0, cores,
                              static_cast<double>(i % 5)));
    odd_costs.back().scenario = "odd" + std::to_string(i);
  }
  expect_summary_matches(odd_costs, "odd costs");
}

}  // namespace
}  // namespace mergescale::explore
