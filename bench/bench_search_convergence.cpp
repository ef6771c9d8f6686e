// bench_search_convergence: evaluations-to-quality of the adaptive
// search strategies against the exhaustive baseline.  Builds a design
// space of ~1.5e5 grid points (≈3.9e4 unique design points), finds the
// true optimum by enumeration, then gives each strategy a budget of 10%
// of the exhaustive evaluation count and measures how many unique model
// evaluations it needs to get within 1% of the optimum.  The pareto
// strategy is additionally scored on frontier quality: the hypervolume
// of its incremental archive versus the exhaustive Pareto frontier's.
//
//   ./build/bench_search_convergence                   # full space
//   ./build/bench_search_convergence --scale tiny      # CI smoke
//
// Exits nonzero when hill-climb, anneal, or genetic misses the
// 1%-of-optimum mark within the budget, or when the pareto archive's
// hypervolume falls below --hv-frac of the exhaustive frontier's, so CI
// can gate on convergence quality.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/app_params.hpp"
#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "util/cli.hpp"

using namespace mergescale;

namespace {

std::vector<double> integer_grid(double count) {
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(count));
  for (double v = 1.0; v <= count; v += 1.0) grid.push_back(v);
  return grid;
}

explore::ScenarioSpec make_spec(const std::string& scale) {
  explore::ScenarioSpec spec;
  spec.name = "convergence";
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic(),
                  core::GrowthFunction::parallel()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric};
  if (scale == "tiny") {
    spec.chip_budgets = {64.0, 256.0};
    spec.apps = {core::presets::kmeans()};
    // Default power-of-two sizes and small cores keep the smoke run tiny.
  } else {
    spec.chip_budgets = {64.0, 128.0, 256.0, 512.0};
    spec.apps = {core::presets::kmeans(), core::presets::fuzzy(),
                 core::presets::hop()};
    // A dense integer size grid makes the space too large to sweep
    // casually: 4 × 3 × 3 × 2 × 1 × 16 × 96 = 110592 grid points.
    spec.small_core_sizes = integer_grid(16.0);
    spec.sizes = integer_grid(96.0);
  }
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("bench_search_convergence",
                "evaluations-to-within-1%-of-optimum per search strategy, "
                "vs. the exhaustive baseline");
  cli.opt("scale", std::string("full"), "full | tiny (CI smoke)");
  cli.opt("budget-frac", 0.10,
          "adaptive budget as a fraction of the exhaustive evaluations");
  cli.opt("hv-frac", 0.95,
          "minimum pareto-archive hypervolume as a fraction of the "
          "exhaustive frontier's");
  cli.opt("seed", static_cast<long long>(1), "search RNG seed");
  cli.opt("threads", static_cast<long long>(0),
          "worker threads (0 = hardware concurrency)");
  if (!cli.parse(argc, argv)) return 0;

  const explore::ScenarioSpec spec = make_spec(cli.get_string("scale"));
  const search::SearchSpace space(spec);

  explore::EngineOptions options;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.use_cache = false;

  // Exhaustive baseline: sweep every design point once.
  explore::ExploreEngine baseline_engine(options);
  const auto baseline_start = std::chrono::steady_clock::now();
  const std::vector<explore::EvalResult> all = search::run_sweep(
      baseline_engine, space, search::ShardPlan(space.size(), 1).range(0));
  const double baseline_elapsed = seconds_since(baseline_start);
  const explore::EvalResult* best = explore::best_result(all);
  if (best == nullptr) {
    std::cerr << "exhaustive sweep found no feasible point\n";
    return 1;
  }
  explore::StrategySummary baseline;
  baseline.strategy = "exhaustive";
  baseline.evaluations = all.size();
  baseline.best_speedup = best->speedup;
  baseline.to_within_1pct = baseline.evaluations;
  baseline.converged = true;

  std::cout << "space: " << space.size() << " grid points, "
            << baseline.evaluations << " unique design points; exhaustive "
            << "best speedup " << best->speedup << " in "
            << util::format_double(baseline_elapsed * 1e3, 1) << " ms\n\n";

  const auto budget = static_cast<std::uint64_t>(
      cli.get_double("budget-frac") *
      static_cast<double>(baseline.evaluations));

  // Frontier quality reference for the pareto strategy.
  const explore::CostMetric metric = explore::CostMetric::kCoreArea;
  const double ref_cost = explore::hypervolume_ref_cost(spec);
  const double exhaustive_hv =
      explore::hypervolume(explore::pareto_frontier(all, metric), metric,
                           ref_cost);
  double archive_hv = 0.0;

  std::vector<explore::StrategySummary> summaries;
  bool adaptive_converged = true;
  for (search::Strategy strategy :
       {search::Strategy::kRandom, search::Strategy::kHillClimb,
        search::Strategy::kAnneal, search::Strategy::kGenetic,
        search::Strategy::kPareto}) {
    explore::ExploreEngine engine(options);
    search::SearchOptions search_options;
    search_options.strategy = strategy;
    search_options.budget = std::max<std::uint64_t>(1, budget);
    search_options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    search_options.cost_metric = metric;
    const search::SearchOutcome outcome =
        search::run_search(engine, space, search_options);

    explore::StrategySummary summary;
    summary.strategy = std::string(search::strategy_name(strategy));
    summary.evaluations = outcome.evaluations;
    summary.best_speedup = outcome.found ? outcome.best.speedup : 0.0;
    const auto within = outcome.first_within(baseline.best_speedup, 0.01);
    summary.converged = within.has_value();
    summary.to_within_1pct = within ? within->evaluations : 0;
    summaries.push_back(summary);
    // Random sampling is the control and pareto optimizes the frontier,
    // not the single best point; the guided single-objective strategies
    // (hill-climb, anneal, genetic) gate on convergence.
    if ((strategy == search::Strategy::kHillClimb ||
         strategy == search::Strategy::kAnneal ||
         strategy == search::Strategy::kGenetic) &&
        !summary.converged) {
      adaptive_converged = false;
    }
    if (strategy == search::Strategy::kPareto) {
      archive_hv = explore::hypervolume(outcome.archive, metric, ref_cost);
    }
  }

  explore::strategy_comparison(baseline, summaries)
      .print(std::cout, "convergence vs. exhaustive baseline (budget " +
                            std::to_string(budget) + " evaluations)");

  const double hv_share =
      exhaustive_hv > 0.0 ? archive_hv / exhaustive_hv : 1.0;
  std::cout << "pareto archive hypervolume: "
            << util::format_double(archive_hv, 1) << " of "
            << util::format_double(exhaustive_hv, 1) << " exhaustive ("
            << util::format_double(100.0 * hv_share, 2) << "%)\n";

  if (!adaptive_converged) {
    std::cerr << "FAIL: a guided strategy did not reach within 1% of the "
                 "exhaustive optimum inside its budget\n";
    return 1;
  }
  if (hv_share < cli.get_double("hv-frac")) {
    std::cerr << "FAIL: the pareto archive recovered only "
              << util::format_double(100.0 * hv_share, 2)
              << "% of the exhaustive frontier hypervolume (gate "
              << util::format_double(100.0 * cli.get_double("hv-frac"), 0)
              << "%)\n";
    return 1;
  }
  std::cout << "guided strategies reached within 1% of the optimum using <= "
            << util::format_double(
                   100.0 * static_cast<double>(budget) /
                       static_cast<double>(baseline.evaluations),
                   0)
            << "% of the exhaustive evaluations\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_search_convergence: " << e.what() << "\n";
  return 1;
}
