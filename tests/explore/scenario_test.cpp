#include "explore/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/app_params.hpp"

namespace mergescale::explore {
namespace {

using core::ModelVariant;

ScenarioSpec two_by_two() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::fuzzy()};
  return spec;
}

TEST(ScenarioSpec, ExpandProducesTheCrossProductWithSequentialIndices) {
  const ScenarioSpec spec = two_by_two();
  const auto jobs = spec.expand();
  // Defaults: 1 growth, variants {symmetric, asymmetric}, 3 small-core
  // sizes, power-of-two grids of 7 (n=64) and 9 (n=256) sizes.
  // Per budget: apps(2) × growths(1) × (sizes + 3·sizes) = 2 × 4·sizes.
  ASSERT_EQ(jobs.size(), 2u * 4u * 7u + 2u * 4u * 9u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].scenario, "test");
  }
}

TEST(ScenarioSpec, ExpansionIsDeterministic) {
  const ScenarioSpec spec = two_by_two();
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.variant, b[i].request.variant);
    EXPECT_EQ(a[i].request.chip.n, b[i].request.chip.n);
    EXPECT_EQ(a[i].request.app.name, b[i].request.app.name);
    EXPECT_EQ(a[i].request.r, b[i].request.r);
    EXPECT_EQ(a[i].request.rl, b[i].request.rl);
    EXPECT_EQ(a[i].topology, b[i].topology);
  }
}

TEST(ScenarioSpec, CommVariantsMultiplyByTopologies) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetricComm};
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u * 9u);
  EXPECT_EQ(jobs.front().topology, "mesh");
  EXPECT_EQ(jobs.back().topology, "bus");
}

TEST(ScenarioSpec, ReductionVariantsIgnoreTopologies) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetric};
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus,
                     noc::Topology::kRing};
  const auto jobs = spec.expand();
  EXPECT_EQ(jobs.size(), 9u);
  for (const auto& job : jobs) EXPECT_EQ(job.topology, "-");
}

TEST(ScenarioSpec, ExplicitSizesOverridePowerOfTwoGrid) {
  ScenarioSpec spec;
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetric};
  spec.sizes = {1.0, 3.0, 9.0, 27.0};
  EXPECT_EQ(spec.expand().size(), 2u * 4u);
}

TEST(ScenarioSpec, SizesBeyondABudgetAreDroppedForThatBudget) {
  ScenarioSpec spec;
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kSymmetric};
  spec.sizes = {1.0, 64.0, 128.0, 256.0};
  // n = 64 keeps {1, 64}; n = 256 keeps all four.
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u + 4u);
  for (const auto& job : jobs) {
    EXPECT_LE(job.request.r, job.request.chip.n);
  }
}

TEST(ScenarioSpec, AsymmetricJobsCoverSmallCoreTimesGrid) {
  ScenarioSpec spec;
  spec.chip_budgets = {256.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {ModelVariant::kAsymmetric};
  spec.small_core_sizes = {1.0, 4.0};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u * 9u);
  // r is the outer loop, rl the inner.
  EXPECT_EQ(jobs[0].request.r, 1.0);
  EXPECT_EQ(jobs[0].request.rl, 1.0);
  EXPECT_EQ(jobs[8].request.rl, 256.0);
  EXPECT_EQ(jobs[9].request.r, 4.0);
}

TEST(ScenarioSpec, ValidateRejectsEmptyAxes) {
  ScenarioSpec spec;  // no apps
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.apps = {core::presets::kmeans()};
  EXPECT_NO_THROW(spec.validate());

  spec.variants.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.variants = {ModelVariant::kSymmetricComm};
  spec.topologies.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateRejectsSubBceSizes) {
  ScenarioSpec spec;
  spec.apps = {core::presets::kmeans()};
  spec.sizes = {1.0, 0.5};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.sizes.clear();
  spec.small_core_sizes = {0.25};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

ScenarioConfig paper_config() {
  return {"kmeans,custom", "64,256", "linear,log", "symmetric,asymmetric-comm",
          "mesh,bus", "1,4", "", 0.5, 0.99, 0.6, 0.8};
}

TEST(RunConfig, NumbersKeepTheirLegacyTextWhenItIsExact) {
  // The 6-significant-digit text earlier builds recorded: a directory
  // recorded by them must still compare equal on --resume.
  EXPECT_EQ(to_config(paper_config()),
            "apps=kmeans,custom;budgets=64,256;growths=linear,log;"
            "variants=symmetric,asymmetric-comm;topologies=mesh,bus;"
            "small-cores=1,4;sizes=;comp-share=0.5;f=0.99;fcon=0.6;"
            "fored=0.8");
  ScenarioConfig tiny = paper_config();
  tiny.comp_share = 1e-7;
  EXPECT_NE(to_config(tiny).find(";comp-share=1e-07;"), std::string::npos);
}

TEST(RunConfig, NumbersAreLossless) {
  for (const double value : {0.1234567, 1.0 / 3.0, 0.99985000000000002,
                             0.50000000000000011, 1e-300}) {
    ScenarioConfig config = paper_config();
    config.comp_share = value;
    config.f = value;
    config.fcon = value;
    config.fored = value;
    const ScenarioSpec spec = from_config(to_config(config), "lossless");
    EXPECT_EQ(spec.comp_share, value) << to_config(config);
    EXPECT_EQ(spec.apps[1].f, value);
    EXPECT_EQ(spec.apps[1].fcon, value);
    EXPECT_EQ(spec.apps[1].fored, value);
  }
  ScenarioConfig config = paper_config();
  config.comp_share = 0.1234567;
  EXPECT_NE(to_config(config).find(";comp-share=0.1234567;"),
            std::string::npos);
}

TEST(RunConfig, FromConfigBuildsTheNamedSpec) {
  const ScenarioSpec spec = from_config(to_config(paper_config()), "cli");
  EXPECT_EQ(spec.name, "cli");
  EXPECT_EQ(spec.chip_budgets, (std::vector<double>{64.0, 256.0}));
  ASSERT_EQ(spec.apps.size(), 2u);
  EXPECT_EQ(spec.apps[0].name, "kmeans");
  EXPECT_EQ(spec.apps[1].name, "custom");
  EXPECT_EQ(spec.apps[1].f, 0.99);
  ASSERT_EQ(spec.growths.size(), 2u);
  EXPECT_EQ(spec.growths[1].name(), "log");
  EXPECT_EQ(spec.variants, (std::vector<ModelVariant>{
                               ModelVariant::kSymmetric,
                               ModelVariant::kAsymmetricComm}));
  EXPECT_EQ(spec.topologies, (std::vector<noc::Topology>{
                                 noc::Topology::kMesh2D, noc::Topology::kBus}));
  EXPECT_EQ(spec.small_core_sizes, (std::vector<double>{1.0, 4.0}));
  EXPECT_TRUE(spec.sizes.empty());
  EXPECT_EQ(spec.comp_share, 0.5);
}

/// The message from_config throws for `config`, or "" when it parses.
std::string parse_error(const std::string& config) {
  try {
    from_config(config, "bad");
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(RunConfig, FromConfigNamesWhatItRefuses) {
  std::string config = to_config(paper_config());
  const auto with = [&config](const std::string& from, const std::string& to) {
    std::string changed = config;
    changed.replace(changed.find(from), from.size(), to);
    return changed;
  };
  EXPECT_NE(parse_error(with("budgets=64,256", "budgets=64x")).find("'64x'"),
            std::string::npos);
  EXPECT_NE(parse_error(with("sizes=", "sizes=4,8q")).find("'8q'"),
            std::string::npos);
  EXPECT_NE(parse_error(with("apps=kmeans", "apps=kmeanz")).find("'kmeanz'"),
            std::string::npos);
  EXPECT_NE(parse_error(with("growths=linear", "growths=cubic"))
                .find("'cubic'"),
            std::string::npos);
  EXPECT_NE(parse_error(with("budgets=64,256;", "")).find("'budgets='"),
            std::string::npos);
  EXPECT_NE(parse_error(config + ";junk").find("'junk'"), std::string::npos);
  EXPECT_EQ(parse_error(config + ";strategy=anneal;seed=3;shards=4"), "");
  EXPECT_EQ(parse_error(with("sizes=;", "")), "");  // sizes is optional
}

TEST(RunConfig, ConfigTokenReadsOneToken) {
  const std::string config =
      to_config(paper_config()) + ";strategy=exhaustive" +
      shard_config_token(4);
  EXPECT_EQ(config_token(config, "strategy"), "exhaustive");
  EXPECT_EQ(config_token(config, "shards"), "4");
  EXPECT_EQ(config_token(config, "sizes"), "");
  EXPECT_EQ(config_token(config, "seed"), std::nullopt);
  EXPECT_EQ(config_token(strip_shard_config(config), "shards"), std::nullopt);
  std::string pinned = "apps=kmeans";
  append_config_token(pinned, "seed", "7");
  EXPECT_EQ(pinned, "apps=kmeans;seed=7");
  EXPECT_THROW(config_token("apps=kmeans;junk", "apps"), std::runtime_error);
}

TEST(PointBuilder, AppliesTheVariantRules) {
  ScenarioSpec spec;
  spec.name = "rules";
  spec.comp_share = 0.25;
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus};
  const std::vector<core::GrowthFunction> comms = comm_laws(spec);
  ASSERT_EQ(comms.size(), 2u);
  EXPECT_EQ(comms[1].name(), "bus");
  const core::AppParams app = core::presets::hop();
  const core::GrowthFunction growth = core::GrowthFunction::logarithmic();

  const EvalJob symmetric = point_job(spec, ModelVariant::kSymmetric, 128.0,
                                      app, growth, &comms[1], 4.0, 32.0);
  EXPECT_EQ(symmetric.index, 0u);
  EXPECT_EQ(symmetric.scenario, "rules");
  EXPECT_EQ(symmetric.topology, "-");
  EXPECT_EQ(symmetric.request.chip.n, 128.0);
  EXPECT_EQ(symmetric.request.r, 4.0);
  EXPECT_EQ(symmetric.request.rl, 0.0);  // symmetric variants drop rl
  EXPECT_EQ(symmetric.request.comp_share, core::EvalRequest{}.comp_share);
  EXPECT_EQ(symmetric.request.growth.name(), "log");

  const EvalJob comm = point_job(spec, ModelVariant::kAsymmetricComm, 128.0,
                                 app, growth, &comms[1], 4.0, 32.0);
  EXPECT_EQ(comm.topology, "bus");
  EXPECT_EQ(comm.request.comm_growth.name(), "bus");
  EXPECT_EQ(comm.request.comp_share, 0.25);
  EXPECT_EQ(comm.request.rl, 32.0);
  EXPECT_EQ(comm.request.app.name, "hop");
}

TEST(LabelLookup, FindsTheFirstEntryByLabel) {
  ScenarioSpec spec;
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.topologies = {noc::Topology::kRing, noc::Topology::kTorus2D};
  EXPECT_EQ(find_label(spec.apps, "hop"), &spec.apps[1]);
  EXPECT_EQ(find_label(spec.apps, "fuzzy"), nullptr);
  EXPECT_EQ(find_label(spec.growths, "linear"), &spec.growths[0]);
  EXPECT_EQ(find_label(spec.topologies, "torus"), &spec.topologies[1]);
  EXPECT_EQ(find_label(spec.topologies, "mesh"), nullptr);
}

}  // namespace
}  // namespace mergescale::explore
