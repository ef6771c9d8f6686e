#include "search/space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/app_params.hpp"
#include "explore/memo_cache.hpp"

namespace mergescale::search {
namespace {

explore::ScenarioSpec sample_spec() {
  explore::ScenarioSpec spec;
  spec.name = "space-test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm};
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus};
  spec.small_core_sizes = {1.0, 4.0};
  spec.sizes = {1.0, 16.0, 128.0};
  return spec;
}

TEST(SearchSpace, SizeIsTheAxisProduct) {
  const SearchSpace space(sample_spec());
  // budgets(2) × apps(2) × growths(2) × variants(3) × topologies(2) ×
  // smalls(2) × sizes(3)
  EXPECT_EQ(space.size(), 2u * 2 * 2 * 3 * 2 * 2 * 3);
  std::uint64_t product = 1;
  for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
    product *= space.axis_size(dim);
  }
  EXPECT_EQ(space.size(), product);
}

TEST(SearchSpace, DecodeEncodeRoundTrips) {
  const SearchSpace space(sample_spec());
  for (std::uint64_t flat = 0; flat < space.size(); ++flat) {
    const Coords coords = space.decode(flat);
    for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
      EXPECT_LT(coords[dim], space.axis_size(dim));
    }
    EXPECT_EQ(space.encode(coords), flat);
  }
}

TEST(SearchSpace, EmptySizesResolveToPowersOfTwoOfTheLargestBudget) {
  explore::ScenarioSpec spec = sample_spec();
  spec.sizes.clear();
  const SearchSpace space(spec);
  EXPECT_EQ(space.sizes(), core::power_of_two_sizes(256.0));
}

TEST(SearchSpace, SymmetricJobUsesTheSizeAxisAsR) {
  const SearchSpace space(sample_spec());
  explore::EvalJob job;
  // budget 256, app hop, growth log, symmetric, any topology, any small,
  // size 16.
  ASSERT_TRUE(space.job_at(Coords{1, 1, 1, 0, 0, 1, 1}, &job));
  EXPECT_EQ(job.request.variant, core::ModelVariant::kSymmetric);
  EXPECT_DOUBLE_EQ(job.request.chip.n, 256.0);
  EXPECT_EQ(job.request.app.name, "hop");
  EXPECT_EQ(job.request.growth.name(),
            core::GrowthFunction::logarithmic().name());
  EXPECT_DOUBLE_EQ(job.request.r, 16.0);
  EXPECT_DOUBLE_EQ(job.request.rl, 0.0);
  EXPECT_EQ(job.topology, "-");
}

TEST(SearchSpace, AsymmetricJobPairsSmallAndLargeCores) {
  const SearchSpace space(sample_spec());
  explore::EvalJob job;
  ASSERT_TRUE(space.job_at(Coords{1, 0, 0, 1, 0, 1, 1}, &job));
  EXPECT_EQ(job.request.variant, core::ModelVariant::kAsymmetric);
  EXPECT_DOUBLE_EQ(job.request.r, 4.0);    // small axis
  EXPECT_DOUBLE_EQ(job.request.rl, 16.0);  // size axis
}

TEST(SearchSpace, CommJobCarriesTheTopology) {
  const SearchSpace space(sample_spec());
  explore::EvalJob job;
  ASSERT_TRUE(space.job_at(Coords{0, 0, 0, 2, 1, 0, 0}, &job));
  EXPECT_EQ(job.request.variant, core::ModelVariant::kSymmetricComm);
  EXPECT_EQ(job.topology, "bus");
  EXPECT_EQ(job.request.comm_growth.name(), "bus");
}

TEST(SearchSpace, OversizedCoresAreOutOfBounds) {
  const SearchSpace space(sample_spec());
  explore::EvalJob job;
  // size 128 on the 64-BCE budget does not fit.
  EXPECT_FALSE(space.job_at(Coords{0, 0, 0, 0, 0, 0, 2}, &job));
  // ... but fits the 256-BCE budget.
  EXPECT_TRUE(space.job_at(Coords{1, 0, 0, 0, 0, 0, 2}, &job));
}

TEST(SearchSpace, InertTopologyCoordinatesShareACacheKey) {
  const SearchSpace space(sample_spec());
  explore::EvalJob mesh_coord;
  explore::EvalJob bus_coord;
  // Symmetric variant: the topology coordinate must not change the job.
  ASSERT_TRUE(space.job_at(Coords{0, 0, 0, 0, 0, 0, 0}, &mesh_coord));
  ASSERT_TRUE(space.job_at(Coords{0, 0, 0, 0, 1, 0, 0}, &bus_coord));
  EXPECT_EQ(explore::cache_key(mesh_coord.request),
            explore::cache_key(bus_coord.request));
}

TEST(SearchSpace, CanonicalZeroesInertAxesAndFirstOccurrences) {
  explore::ScenarioSpec spec = sample_spec();
  spec.sizes = {1.0, 16.0, 16.0, 128.0};
  const SearchSpace space(spec);
  const auto canonical = [&space](const Coords& coords) {
    return space.canonical(space.encode(coords));
  };
  // Symmetric: topology and small-core coordinates are inert.
  EXPECT_EQ(canonical({1, 0, 0, 0, 1, 1, 1}),
            space.encode({1, 0, 0, 0, 0, 0, 1}));
  // Asymmetric: the small core counts, the topology does not.
  EXPECT_EQ(canonical({1, 0, 0, 1, 1, 1, 1}),
            space.encode({1, 0, 0, 1, 0, 1, 1}));
  // Symmetric-comm: the topology counts, the small core does not.
  EXPECT_EQ(canonical({1, 0, 0, 2, 1, 1, 1}),
            space.encode({1, 0, 0, 2, 1, 0, 1}));
  // The second 16 is the first one.
  EXPECT_EQ(canonical({1, 0, 0, 2, 1, 0, 2}),
            space.encode({1, 0, 0, 2, 1, 0, 1}));
  // 128 does not fit the 64-BCE budget.
  EXPECT_EQ(canonical({0, 0, 0, 0, 0, 0, 3}), std::nullopt);
  // budgets(2) × apps(2) × growths(2) × [symmetric 1 + asymmetric 2 +
  // symmetric-comm 2] × distinct fitting sizes (2 at 64, 3 at 256).
  EXPECT_EQ(space.point_count(), 2u * 2 * 5 * (2 + 3));
}

/// A random small spec whose axes hold distinct values, except that now
/// and then one axis repeats a value, and a custom app may copy kmeans'
/// parameters under its own label.
explore::ScenarioSpec random_spec(std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  // 1..max distinct entries of `pool`, plus (one time in three) a repeat.
  const auto pick = [&](auto pool, std::size_t max) {
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.erase(pool.begin() + 1 + below(std::min(max, pool.size())),
               pool.end());
    if (below(3) == 0) pool.push_back(pool[below(pool.size())]);
    return pool;
  };
  explore::ScenarioSpec spec;
  spec.name = "canonical";
  spec.chip_budgets = pick(std::vector<double>{8, 16, 40, 64}, 2);
  core::AppParams custom = core::presets::kmeans();
  custom.name = "custom";
  if (below(2) != 0) custom.fored = 0.25 + 0.5 * (below(100) / 100.0);
  spec.apps = pick(std::vector<core::AppParams>{core::presets::kmeans(),
                                                core::presets::hop(), custom},
                   3);
  spec.growths = pick(
      std::vector<core::GrowthFunction>{core::GrowthFunction::linear(),
                                        core::GrowthFunction::logarithmic(),
                                        core::GrowthFunction::parallel()},
      2);
  spec.variants = pick(
      std::vector<core::ModelVariant>{core::ModelVariant::kSymmetric,
                                      core::ModelVariant::kAsymmetric,
                                      core::ModelVariant::kSymmetricComm,
                                      core::ModelVariant::kAsymmetricComm},
      3);
  spec.topologies = pick(
      std::vector<noc::Topology>{noc::Topology::kBus, noc::Topology::kRing,
                                 noc::Topology::kMesh2D},
      2);
  spec.small_core_sizes = pick(std::vector<double>{1, 2, 3, 12}, 2);
  if (below(2) == 0) {
    spec.sizes = pick(std::vector<double>{1, 2, 3, 5, 8, 12, 24, 50}, 5);
  }
  return spec;
}

/// The design point a job evaluates, by its labels and sizes.
using Design =
    std::tuple<core::ModelVariant, double, std::string, std::string,
               std::string, double, double>;

Design design_of(const explore::EvalJob& job) {
  const core::EvalRequest& request = job.request;
  return {request.variant, request.chip.n, request.app.name,
          request.growth.name(), job.topology, request.r, request.rl};
}

// canonical() is the design-point identity on random grids with inert
// axes and repeated values: two in-bounds flats share a canonical index
// exactly when their jobs are the same design point, the canonical flats
// are counted by point_count(), and in ascending order they are
// ScenarioSpec::expand()'s jobs with each repeated point dropped.
TEST(SearchSpace, CanonicalIsTheDesignPointIdentity) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const explore::ScenarioSpec spec = random_spec(rng);
    const SearchSpace space(spec);
    std::map<Design, std::uint64_t> canonical_of;
    std::vector<Design> ascending;
    for (std::uint64_t flat = 0; flat < space.size(); ++flat) {
      const std::optional<std::uint64_t> canonical = space.canonical(flat);
      explore::EvalJob job;
      ASSERT_EQ(canonical.has_value(), space.job_at(space.decode(flat), &job));
      if (!canonical) continue;
      ASSERT_LE(*canonical, flat);
      EXPECT_EQ(space.canonical(*canonical), canonical);
      const auto [it, fresh] = canonical_of.try_emplace(design_of(job), flat);
      EXPECT_EQ(it->second, *canonical);
      if (fresh) ascending.push_back(design_of(job));
    }
    EXPECT_EQ(space.point_count(), canonical_of.size());

    std::vector<Design> expanded;
    std::map<Design, bool> seen;
    for (const explore::EvalJob& job : spec.expand()) {
      if (seen.emplace(design_of(job), true).second) {
        expanded.push_back(design_of(job));
      }
    }
    EXPECT_EQ(ascending, expanded);
  }
}

// index_of() inverts job_at() up to canonical(): the design key of any
// in-bounds flat's job names its canonical flat, and a key with one
// coordinate moved off its axis (or out of its chip) names none.
TEST(SearchSpace, IndexOfInvertsJobAtUpToCanonical) {
  const auto moved = [](double value) {
    return std::nextafter(value, std::numeric_limits<double>::infinity());
  };
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const explore::ScenarioSpec spec = random_spec(rng);
    const SearchSpace space(spec);
    const auto absent = [](const auto& pool, const auto& axis) {
      for (const auto& value : pool) {
        if (std::find(axis.begin(), axis.end(), value) == axis.end()) {
          return value;
        }
      }
      ADD_FAILURE() << "every value is on the axis";
      return pool.front();
    };
    const core::ModelVariant other_variant =
        absent(std::vector<core::ModelVariant>{
                   core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric,
                   core::ModelVariant::kSymmetricComm,
                   core::ModelVariant::kAsymmetricComm},
               spec.variants);
    const std::string other_topology(noc::topology_name(
        absent(std::vector<noc::Topology>{noc::Topology::kBus,
                                          noc::Topology::kRing,
                                          noc::Topology::kMesh2D},
               spec.topologies)));
    const double widest =
        *std::max_element(space.sizes().begin(), space.sizes().end());
    for (std::uint64_t flat = 0; flat < space.size(); ++flat) {
      explore::EvalJob job;
      if (!space.job_at(space.decode(flat), &job)) continue;
      const core::EvalRequest& request = job.request;
      const DesignKey key{request.variant,      request.chip.n,
                          request.r,            request.rl,
                          request.app.name,     request.growth.name(),
                          job.topology};
      ASSERT_EQ(space.index_of(key), space.canonical(flat)) << flat;

      const bool asym = core::is_asymmetric_variant(key.variant);
      std::vector<DesignKey> off(8, key);
      off[0].n = moved(key.n);
      off[1].app = "nope";
      off[2].growth = "nope";
      off[3].variant = other_variant;
      off[4].topology = core::is_comm_variant(key.variant)
                            ? std::string_view(other_topology)
                            : std::string_view(
                                  noc::topology_name(spec.topologies[0]));
      off[5].r = moved(key.r);
      off[6].rl = asym ? moved(key.rl) : -0.0;
      // The widest size is on the axis but may not fit this chip.
      (asym ? off[7].rl : off[7].r) = widest;
      for (std::size_t i = 0; i < off.size(); ++i) {
        if (i == 7 && widest <= key.n) continue;
        EXPECT_EQ(space.index_of(off[i]), std::nullopt)
            << "flat " << flat << " coordinate " << i;
      }
    }
  }
}

TEST(SearchSpace, RejectsAnInvalidSpec) {
  explore::ScenarioSpec spec = sample_spec();
  spec.apps.clear();
  EXPECT_THROW(SearchSpace{spec}, std::invalid_argument);
}

}  // namespace
}  // namespace mergescale::search
