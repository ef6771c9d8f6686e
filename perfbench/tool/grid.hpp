#pragma once
// The one design-space grid every workload uses, in the two forms the
// benchmark needs: explore_cli flags (printed by `perfbench_tool grid`,
// so run.py never spells the grid a second time) and the ScenarioSpec
// explore_cli builds from those flags (for the in-process replays).
//
// 2 variants x 3 apps x 3 growths x 32 small-core sizes x 2048 large-core
// sizes = 1,179,648 points at one 2048-BCE budget on a mesh.

#include <string>
#include <vector>

#include "core/app_params.hpp"
#include "core/design_space.hpp"
#include "core/growth.hpp"
#include "explore/scenario.hpp"
#include "noc/topology.hpp"

namespace perfbench {

inline constexpr int kBudget = 2048;
inline constexpr int kSmallCores = 32;   ///< r in 1..kSmallCores
inline constexpr int kSizes = 2048;      ///< rl in 1..kSizes
inline constexpr const char* kVariants[] = {"asymmetric", "asymmetric-comm"};
inline constexpr const char* kApps[] = {"kmeans", "fuzzy", "hop"};
inline constexpr const char* kGrowths[] = {"linear", "log", "parallel"};
inline constexpr const char* kTopology = "mesh";

inline std::string seq(int last) {
  std::string out;
  for (int i = 1; i <= last; ++i) {
    if (i > 1) out += ',';
    out += std::to_string(i);
  }
  return out;
}

/// explore_cli flags selecting the grid, as argv words.
inline std::vector<std::string> grid_args() {
  return {"--variants",    "asymmetric,asymmetric-comm",
          "--topologies",  kTopology,
          "--budgets",     std::to_string(kBudget),
          "--apps",        "kmeans,fuzzy,hop",
          "--growths",     "linear,log,parallel",
          "--small-cores", seq(kSmallCores),
          "--sizes",       seq(kSizes)};
}

/// The ScenarioSpec explore_cli builds from grid_args().
inline mergescale::explore::ScenarioSpec grid_spec() {
  using namespace mergescale;
  explore::ScenarioSpec spec;
  spec.name = "explore_cli";
  spec.chip_budgets = {static_cast<double>(kBudget)};
  spec.apps = {core::presets::kmeans(), core::presets::fuzzy(),
               core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic(),
                  core::GrowthFunction::parallel()};
  spec.variants.clear();
  for (const char* variant : kVariants) {
    spec.variants.push_back(core::parse_model_variant(variant));
  }
  spec.topologies = {noc::parse_topology(kTopology)};
  spec.small_core_sizes.clear();
  for (int r = 1; r <= kSmallCores; ++r) spec.small_core_sizes.push_back(r);
  for (int s = 1; s <= kSizes; ++s) spec.sizes.push_back(s);
  return spec;
}

}  // namespace perfbench
