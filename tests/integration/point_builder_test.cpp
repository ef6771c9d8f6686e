// Differential test of the scenario vocabulary's callers.  Random specs
// (duplicate axis values, empty sizes, the custom app, all four
// variants, several topologies, 17-digit doubles) must survive the run
// config round trip field for field and bit for bit, and every job
// expand() produces must key identically when the same coordinates are
// rebuilt by SearchSpace::job_at, RunLog::warm (from a log record) and
// QueryServer::resolve_eval (from an eval query).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "explore/engine.hpp"
#include "explore/memo_cache.hpp"
#include "explore/scenario.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "serve/server.hpp"

namespace mergescale {
namespace {

using explore::ScenarioSpec;

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  bool coin() { return below(2) == 1; }
  /// A full-precision (17-digit) double in [lo, hi).
  double real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  /// real(lo, hi), or now and then the integer lo + 1.
  double number(double lo, double hi) {
    return below(4) == 0 ? lo + 1 : real(lo, hi);
  }
  /// 1..max values from `make`, sometimes repeating one.
  template <typename T, typename Make>
  std::vector<T> axis(std::size_t max, Make make) {
    std::vector<T> values;
    for (std::size_t count = 1 + below(max); values.size() < count;) {
      values.push_back(make());
    }
    if (coin()) values.push_back(values[below(values.size())]);
    return values;
  }

 private:
  std::mt19937_64 rng_;
};

ScenarioSpec random_spec(Gen& gen) {
  ScenarioSpec spec;
  spec.name = "differential";
  spec.chip_budgets = gen.axis<double>(3, [&] { return gen.number(8, 300); });
  const core::AppParams custom{"custom", gen.real(0.5, 0.9999),
                               gen.real(0, 1), gen.real(0, 2)};
  const std::vector<core::AppParams> apps = {
      core::presets::kmeans(), core::presets::fuzzy(), core::presets::hop(),
      custom};
  spec.apps = gen.axis<core::AppParams>(3, [&] { return apps[gen.below(4)]; });
  const std::vector<core::GrowthFunction> growths = {
      core::GrowthFunction::linear(), core::GrowthFunction::logarithmic(),
      core::GrowthFunction::parallel()};
  spec.growths = gen.axis<core::GrowthFunction>(
      3, [&] { return growths[gen.below(3)]; });
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm,
                   core::ModelVariant::kAsymmetricComm};
  std::shuffle(spec.variants.begin(), spec.variants.end(),
               std::mt19937_64(gen.below(1000)));
  if (gen.coin()) spec.variants.push_back(spec.variants[gen.below(4)]);
  spec.topologies = gen.axis<noc::Topology>(
      3, [&] { return static_cast<noc::Topology>(gen.below(5)); });
  spec.small_core_sizes =
      gen.axis<double>(3, [&] { return gen.number(1, 20); });
  if (gen.coin()) {
    spec.sizes = gen.axis<double>(5, [&] { return gen.number(1, 300); });
  }
  spec.comp_share = gen.real(0, 1);
  return spec;
}

std::string join(const std::vector<std::string>& items) {
  std::string text;
  for (const std::string& item : items) {
    text += (text.empty() ? "" : ",") + item;
  }
  return text;
}

std::string join_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double value : values) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", value);
    items.emplace_back(text);
  }
  return join(items);
}

/// The run-config fields a command line would carry for `spec`.
explore::ScenarioConfig config_of(const ScenarioSpec& spec) {
  std::vector<std::string> apps;
  std::vector<std::string> growths;
  std::vector<std::string> variants;
  std::vector<std::string> topologies;
  explore::ScenarioConfig config;
  for (const auto& app : spec.apps) {
    apps.push_back(app.name);
    if (app.name == "custom") {
      config.f = app.f;
      config.fcon = app.fcon;
      config.fored = app.fored;
    }
  }
  for (const auto& growth : spec.growths) growths.push_back(growth.name());
  for (auto variant : spec.variants) {
    variants.emplace_back(core::model_variant_name(variant));
  }
  for (auto topology : spec.topologies) {
    topologies.emplace_back(noc::topology_name(topology));
  }
  config.apps = join(apps);
  config.budgets = join_numbers(spec.chip_budgets);
  config.growths = join(growths);
  config.variants = join(variants);
  config.topologies = join(topologies);
  config.small_cores = join_numbers(spec.small_core_sizes);
  config.sizes = join_numbers(spec.sizes);
  config.comp_share = spec.comp_share;
  return config;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]";
  }
}

void expect_same_spec(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same_bits(a.chip_budgets, b.chip_budgets, "chip_budgets");
  EXPECT_EQ(a.perf.name_id(), b.perf.name_id());
  EXPECT_EQ(a.perf.exponent(), b.perf.exponent());
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    expect_same_bits({a.apps[i].f, a.apps[i].fcon, a.apps[i].fored},
                     {b.apps[i].f, b.apps[i].fcon, b.apps[i].fored}, "app");
  }
  ASSERT_EQ(a.growths.size(), b.growths.size());
  for (std::size_t i = 0; i < a.growths.size(); ++i) {
    EXPECT_EQ(a.growths[i].kind(), b.growths[i].kind());
    EXPECT_EQ(a.growths[i].name(), b.growths[i].name());
    EXPECT_EQ(a.growths[i].exponent(), b.growths[i].exponent());
  }
  EXPECT_EQ(a.variants, b.variants);
  EXPECT_EQ(a.topologies, b.topologies);
  expect_same_bits(a.small_core_sizes, b.small_core_sizes, "small_cores");
  expect_same_bits(a.sizes, b.sizes, "sizes");
  expect_same_bits({a.comp_share}, {b.comp_share}, "comp_share");
}

/// SearchSpace coordinates of every job, in expand() order: the nested
/// loops of expand() over the space's (unfiltered) axes, skipping the
/// sizes that do not fit a budget.
std::vector<search::Coords> expansion_coords(const search::SearchSpace& space) {
  const ScenarioSpec& spec = space.spec();
  std::vector<search::Coords> coords;
  for (std::size_t b = 0; b < spec.chip_budgets.size(); ++b) {
    const double n = spec.chip_budgets[b];
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      for (std::size_t g = 0; g < spec.growths.size(); ++g) {
        for (std::size_t v = 0; v < spec.variants.size(); ++v) {
          const core::ModelVariant variant = spec.variants[v];
          const std::size_t topologies =
              core::is_comm_variant(variant) ? spec.topologies.size() : 1;
          const std::size_t smalls = core::is_asymmetric_variant(variant)
                                         ? spec.small_core_sizes.size()
                                         : 1;
          for (std::size_t t = 0; t < topologies; ++t) {
            for (std::size_t s = 0; s < smalls; ++s) {
              if (core::is_asymmetric_variant(variant) &&
                  spec.small_core_sizes[s] > n) {
                continue;
              }
              for (std::size_t z = 0; z < space.sizes().size(); ++z) {
                if (space.sizes()[z] > n) continue;
                coords.push_back({b, a, g, v, t, s, z});
              }
            }
          }
        }
      }
    }
  }
  return coords;
}

TEST(PointBuilderDifferential, ConfigRoundTripAndEveryCallerKeysAlike) {
  std::size_t checked = 0;
  std::size_t custom_specs = 0;
  std::size_t default_size_specs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Gen gen(seed);
    const ScenarioSpec spec = random_spec(gen);
    const std::string config = explore::to_config(config_of(spec));
    SCOPED_TRACE(config);

    const ScenarioSpec parsed = explore::from_config(config, spec.name);
    expect_same_spec(spec, parsed);
    if (::testing::Test::HasFailure()) return;

    const std::vector<explore::EvalJob> jobs = spec.expand();
    checked += jobs.size();
    custom_specs += explore::find_label(spec.apps, "custom") != nullptr;
    default_size_specs += spec.sizes.empty();
    const search::SearchSpace space(parsed);
    const std::vector<search::Coords> coords = expansion_coords(space);
    ASSERT_EQ(coords.size(), jobs.size());

    std::vector<explore::CacheKey> keys;
    std::vector<explore::EvalResult> records;
    for (const auto& job : jobs) {
      keys.push_back(explore::cache_key(job.request));
      explore::EvalResult record;
      record.index = job.index;
      record.variant = job.request.variant;
      record.n = job.request.chip.n;
      record.app = job.request.app.name;
      record.growth = job.request.growth.name();
      record.topology = job.topology;
      record.r = job.request.r;
      record.rl = job.request.rl;
      record.feasible = true;
      record.speedup = static_cast<double>(job.index);  // tags the record
      records.push_back(record);
    }

    // job_at on the expansion's own coordinates.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      explore::EvalJob at;
      ASSERT_TRUE(space.job_at(coords[i], &at)) << "job " << i;
      EXPECT_TRUE(explore::cache_key(at.request) == keys[i]) << "job " << i;
      EXPECT_EQ(at.topology, jobs[i].topology) << "job " << i;
    }

    // resolve_eval on each job's coordinates as an eval query.
    serve::QueryServer server(
        serve::ServedRun{"", config, parsed},
        serve::ServedRecords{search::ArchiveReader::from_records({}), {}},
        nullptr, serve::ServerOptions{});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      serve::Query query;
      query.kind = serve::QueryKind::kEval;
      query.variant = std::string(core::model_variant_name(records[i].variant));
      query.app = records[i].app;
      query.growth = records[i].growth;
      query.topology = records[i].topology;
      query.n = records[i].n;
      query.r = records[i].r;
      query.rl = records[i].rl;
      const explore::EvalJob resolved = server.resolve_eval(query);
      EXPECT_TRUE(explore::cache_key(resolved.request) == keys[i])
          << "job " << i;
      EXPECT_EQ(resolved.topology, jobs[i].topology) << "job " << i;
    }

    // warm from the jobs as log records: one entry per distinct key,
    // holding the outcome of its last record (insert overwrites).
    std::unordered_map<explore::CacheKey, std::size_t, explore::CacheKeyHash>
        last;
    for (std::size_t i = 0; i < keys.size(); ++i) last[keys[i]] = i;
    explore::ExploreEngine engine(explore::EngineOptions{1});
    EXPECT_EQ(search::RunLog::warm(records, parsed, engine), last.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      explore::EvalOutcome outcome;
      ASSERT_TRUE(engine.cache().lookup(keys[i], &outcome)) << "job " << i;
      EXPECT_EQ(outcome.point.speedup, static_cast<double>(last.at(keys[i])))
          << "job " << i;
    }
  }
  // Not vacuous: the seeds reach the custom app, the power-of-two size
  // default and a sizeable number of points.
  EXPECT_GT(custom_specs, 0u);
  EXPECT_GT(default_size_specs, 0u);
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace mergescale
