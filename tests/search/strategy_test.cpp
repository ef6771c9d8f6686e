#include "search/strategy.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/app_params.hpp"
#include "explore/report.hpp"
#include "search/design_key.hpp"
#include "util/rng.hpp"

namespace mergescale::search {
namespace {

constexpr Strategy kAllStrategies[] = {
    Strategy::kRandom, Strategy::kHillClimb, Strategy::kAnneal,
    Strategy::kGenetic, Strategy::kPareto};

/// A small spec whose exhaustive best is cheap to compute.
explore::ScenarioSpec sample_spec() {
  explore::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.chip_budgets = {64.0, 256.0};
  spec.apps = {core::presets::kmeans(), core::presets::hop()};
  spec.variants = {core::ModelVariant::kSymmetric,
                   core::ModelVariant::kAsymmetric};
  return spec;
}

/// A run directory unique to this test and `tag`, removed when it goes
/// out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("mergescale_strategy_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + tag))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A search run with a log in `dir`: its outcome and the records it
/// appended, which are its fresh evaluations.
struct Logged {
  SearchOutcome outcome;
  std::uint64_t appended = 0;
};

Logged run_logged(const SearchSpace& space, const SearchOptions& options,
                  const std::string& dir,
                  std::span<const PriorPoint> prior = {}) {
  explore::ExploreEngine engine({.threads = 2, .use_cache = false});
  RunLog log(dir, RunLogOptions{});
  Logged run;
  run.outcome = run_search(engine, space, options, &log, prior);
  log.flush();
  run.appended = log.appended();
  return run;
}

double exhaustive_best(const explore::ScenarioSpec& spec) {
  explore::ExploreEngine engine;
  const auto results = engine.run(spec);
  const explore::EvalResult* best = explore::best_result(results);
  EXPECT_NE(best, nullptr);
  return best->speedup;
}

TEST(Strategy, NamesRoundTrip) {
  for (Strategy strategy : kAllStrategies) {
    EXPECT_EQ(parse_strategy(strategy_name(strategy)), strategy);
  }
  EXPECT_THROW(parse_strategy("exhaustive"), std::invalid_argument);
  EXPECT_THROW(parse_strategy(""), std::invalid_argument);
}

TEST(Strategy, EveryStrategyFindsTheExhaustiveBestGivenEnoughBudget) {
  const explore::ScenarioSpec spec = sample_spec();
  const double best = exhaustive_best(spec);
  const SearchSpace space(spec);
  for (Strategy strategy : kAllStrategies) {
    explore::ExploreEngine engine;
    SearchOptions options;
    options.strategy = strategy;
    options.budget = space.size();  // enough to exhaust the space
    const SearchOutcome outcome = run_search(engine, space, options);
    ASSERT_TRUE(outcome.found) << strategy_name(strategy);
    EXPECT_DOUBLE_EQ(outcome.best.speedup, best) << strategy_name(strategy);
  }
}

TEST(Strategy, TerminatesWhenTheBudgetExceedsTheSpace) {
  // The reachable space is far smaller than the budget: the strategies
  // must detect the stall (all proposals revisits) and stop
  // instead of spinning forever.
  explore::ScenarioSpec spec = sample_spec();
  spec.chip_budgets = {64.0};
  spec.apps = {core::presets::kmeans()};
  spec.variants = {core::ModelVariant::kSymmetric};
  const SearchSpace space(spec);
  for (Strategy strategy : kAllStrategies) {
    explore::ExploreEngine engine;
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 1000000;
    const SearchOutcome outcome = run_search(engine, space, options);
    EXPECT_LE(outcome.evaluations, space.size()) << strategy_name(strategy);
    EXPECT_TRUE(outcome.found) << strategy_name(strategy);
  }
}

TEST(Strategy, DeterministicForAFixedSeed) {
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 40;
    options.seed = 7;
    explore::ExploreEngine engine_a;
    explore::ExploreEngine engine_b;
    const SearchOutcome a = run_search(engine_a, space, options);
    const SearchOutcome b = run_search(engine_b, space, options);
    EXPECT_EQ(a.proposals, b.proposals) << strategy_name(strategy);
    EXPECT_EQ(a.evaluations, b.evaluations) << strategy_name(strategy);
    ASSERT_EQ(a.found, b.found) << strategy_name(strategy);
    if (a.found) {
      EXPECT_DOUBLE_EQ(a.best.speedup, b.best.speedup)
          << strategy_name(strategy);
    }
    ASSERT_EQ(a.trace.size(), b.trace.size()) << strategy_name(strategy);
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].evaluations, b.trace[i].evaluations);
      EXPECT_DOUBLE_EQ(a.trace[i].best_speedup, b.trace[i].best_speedup);
    }
    ASSERT_EQ(a.archive.size(), b.archive.size()) << strategy_name(strategy);
    for (std::size_t i = 0; i < a.archive.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.archive[i].speedup, b.archive[i].speedup);
    }
  }
}

TEST(Strategy, TraceBestIsNondecreasing) {
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 25;
    const ScratchDir dir(std::string(strategy_name(strategy)));
    const Logged run = run_logged(space, options, dir.path());
    double last = 0.0;
    for (const TracePoint& point : run.outcome.trace) {
      EXPECT_GE(point.best_speedup, last);
      last = point.best_speedup;
    }
    // A fresh run evaluates each charged point once.
    EXPECT_EQ(run.outcome.evaluations, run.appended);
  }
}

TEST(Strategy, BudgetIsAHardCapForEveryStrategy) {
  // Regression: hill-climb used to submit the full 2×kDims neighborhood
  // after only checking `evaluations() < budget`, overshooting the
  // unique-evaluation budget by up to 2×kDims − 1 per step.  Every
  // strategy must now clamp its batches so the budget is never
  // overshot, for any budget — including ones smaller than a
  // neighborhood, a random batch, or a genetic population.
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    for (std::uint64_t budget : {1ull, 5ull, 13ull, 25ull, 60ull, 150ull}) {
      SearchOptions options;
      options.strategy = strategy;
      options.budget = budget;
      const ScratchDir dir(std::string(strategy_name(strategy)) + "_" +
                           std::to_string(budget));
      const Logged run = run_logged(space, options, dir.path());
      EXPECT_LE(run.outcome.evaluations, budget)
          << strategy_name(strategy) << " budget " << budget;
      EXPECT_EQ(run.outcome.evaluations, run.appended)
          << strategy_name(strategy) << " budget " << budget;
    }
  }
}

TEST(Strategy, BudgetHoldsAcrossKillAndResume) {
  // The cap must survive resumption: neither the interrupted slice nor
  // the resumed continuation may exceed the budget it ran under, and
  // the two together may not exceed the full budget.
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    for (std::uint64_t slice_budget : {7ull, 20ull, 41ull}) {
      SearchOptions slice;
      slice.strategy = strategy;
      slice.budget = slice_budget;
      slice.seed = 11;
      const ScratchDir dir(std::string(strategy_name(strategy)) + "_" +
                           std::to_string(slice_budget));
      const Logged partial = run_logged(space, slice, dir.path());
      EXPECT_LE(partial.outcome.evaluations, slice_budget)
          << strategy_name(strategy);

      // Resume from the log: its points are charged, not evaluated.
      const std::vector<explore::EvalResult> records = RunLog::load(dir.path());
      const std::vector<PriorPoint> prior = prior_points(space, records);
      EXPECT_EQ(prior.size(), partial.appended) << strategy_name(strategy);
      SearchOptions rest = slice;
      rest.budget = 60;
      const Logged resumed = run_logged(space, rest, dir.path(), prior);
      EXPECT_LE(resumed.outcome.evaluations, rest.budget)
          << strategy_name(strategy) << " slice " << slice_budget;
      EXPECT_EQ(partial.appended + resumed.appended,
                resumed.outcome.evaluations)
          << strategy_name(strategy) << " slice " << slice_budget;
    }
  }
}

TEST(Strategy, RecordsCarryTheCanonicalIndexOfTheirDesignPoint) {
  // Inert axes (the symmetric small core, every non-comm topology) and a
  // repeated size give most points several coordinates.
  explore::ScenarioSpec spec = sample_spec();
  spec.variants.push_back(core::ModelVariant::kSymmetricComm);
  spec.topologies = {noc::Topology::kMesh2D, noc::Topology::kBus};
  spec.sizes = {1.0, 2.0, 4.0, 4.0, 16.0, 64.0, 256.0};
  const SearchSpace space(spec);
  // The exhaustive sweep records each design point under its canonical
  // flat index: the oracle.
  explore::ExploreEngine sweeper({.threads = 2, .use_cache = false});
  const std::vector<explore::EvalResult> swept =
      run_sweep(sweeper, space, ShardPlan(space.size(), 1).range(0));
  std::unordered_map<DesignKey, std::size_t, DesignKeyHash> flat_of;
  for (const explore::EvalResult& result : swept) {
    flat_of.emplace(DesignKey::of(result), result.index);
  }
  ASSERT_EQ(flat_of.size(), swept.size());

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mergescale_strategy_index_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  for (Strategy strategy : kAllStrategies) {
    std::filesystem::remove_all(dir);
    {
      RunLog log(dir, RunLogOptions{});
      explore::ExploreEngine engine({.threads = 2});
      SearchOptions options;
      options.strategy = strategy;
      options.budget = space.point_count() / 2;
      run_search(engine, space, options, &log);
    }
    const std::vector<explore::EvalResult> records = RunLog::load(dir);
    ASSERT_GT(records.size(), 8u) << strategy_name(strategy);
    std::set<std::size_t> indices;
    for (const explore::EvalResult& record : records) {
      EXPECT_EQ(record.index, flat_of.at(DesignKey::of(record)))
          << strategy_name(strategy);
      indices.insert(record.index);
    }
    // The log holds each point once, so its indices are all distinct.
    EXPECT_EQ(indices.size(), records.size()) << strategy_name(strategy);
  }
  std::filesystem::remove_all(dir);
}

TEST(Strategy, ProposalsCountOnlyInBoundsPoints) {
  // The shared size grid spans the largest chip budget, so for the small
  // budget most candidate sizes are out of bounds — coordinates that
  // never become jobs.  Regression: those used to be counted into
  // `proposals`, inflating every round to the full batch size.
  explore::ScenarioSpec spec = sample_spec();
  spec.chip_budgets = {16.0, 256.0};
  const SearchSpace space(spec);
  explore::ExploreEngine engine;
  SearchOptions options;
  options.strategy = Strategy::kRandom;
  options.budget = 1000000;  // exhaust the space, then stall out
  const SearchOutcome outcome = run_search(engine, space, options);
  ASSERT_GT(outcome.trace.size(), 1u);
  // One trace point per round plus run_search's final snapshot; with the
  // old accounting, proposals equaled rounds × batch exactly.
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(outcome.trace.size()) - 1;
  EXPECT_LT(outcome.proposals, rounds * options.batch);
  EXPECT_GE(outcome.proposals, outcome.evaluations);
}

TEST(Strategy, ParetoArchiveMatchesTheExhaustiveFrontier) {
  // On a space small enough to exhaust, the incremental archive must
  // agree with the frontier computed from a full sweep — same costs,
  // same speedups, strictly increasing — for either cost metric.
  explore::ScenarioSpec spec = sample_spec();
  spec.chip_budgets = {64.0};  // one budget → grid and expansion coincide
  const SearchSpace space(spec);
  explore::ExploreEngine reference;
  const std::vector<explore::EvalResult> all = reference.run(spec);
  for (explore::CostMetric metric :
       {explore::CostMetric::kCoreArea, explore::CostMetric::kCoreCount}) {
    const std::vector<explore::EvalResult> frontier =
        explore::pareto_frontier(all, metric);
    ASSERT_FALSE(frontier.empty());

    explore::ExploreEngine engine;
    SearchOptions options;
    options.strategy = Strategy::kPareto;
    options.budget = space.size();
    options.cost_metric = metric;
    const SearchOutcome outcome = run_search(engine, space, options);
    ASSERT_EQ(outcome.archive.size(), frontier.size())
        << "metric " << static_cast<int>(metric);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      EXPECT_DOUBLE_EQ(explore::cost_of(outcome.archive[i], metric),
                       explore::cost_of(frontier[i], metric));
      EXPECT_DOUBLE_EQ(outcome.archive[i].speedup, frontier[i].speedup);
    }
  }
}

TEST(Strategy, ArchiveIsMaintainedForEveryStrategy) {
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    explore::ExploreEngine engine;
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 40;
    const SearchOutcome outcome = run_search(engine, space, options);
    ASSERT_TRUE(outcome.found) << strategy_name(strategy);
    ASSERT_FALSE(outcome.archive.empty()) << strategy_name(strategy);
    // Cost ascending, speedup strictly increasing, best point included.
    double last_cost = -1.0;
    double last_speedup = 0.0;
    for (const explore::EvalResult& member : outcome.archive) {
      const double cost =
          explore::cost_of(member, options.cost_metric);
      EXPECT_GT(cost, last_cost) << strategy_name(strategy);
      EXPECT_GT(member.speedup, last_speedup) << strategy_name(strategy);
      last_cost = cost;
      last_speedup = member.speedup;
    }
    EXPECT_DOUBLE_EQ(outcome.archive.back().speedup, outcome.best.speedup)
        << strategy_name(strategy);
  }
}

TEST(Strategy, FirstWithinFindsTheEarliestQualifyingTracePoint) {
  SearchOutcome outcome;
  outcome.trace = {{10, 50.0}, {20, 98.5}, {30, 99.5}, {40, 100.0}};
  auto at_30 = outcome.first_within(100.0, 0.01);
  ASSERT_TRUE(at_30.has_value());
  EXPECT_EQ(at_30->evaluations, 30u);
  auto at_10 = outcome.first_within(100.0, 0.5);
  ASSERT_TRUE(at_10.has_value());
  EXPECT_EQ(at_10->evaluations, 10u);
  EXPECT_FALSE(outcome.first_within(200.0, 0.01).has_value());  // never
}

TEST(Strategy, FirstWithinDistinguishesNeverFromImmediately) {
  // A warm-loaded resume can sit inside the 1% band before spending a
  // single evaluation; that must not be confused with "never reached",
  // which the old 0-evaluations sentinel collapsed it into.
  SearchOutcome immediately;
  immediately.trace = {{0, 100.0}, {10, 100.0}};
  const auto hit = immediately.first_within(100.0, 0.01);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->evaluations, 0u);

  SearchOutcome never;
  never.trace = {{0, 0.0}, {10, 50.0}};
  EXPECT_FALSE(never.first_within(100.0, 0.01).has_value());
}

TEST(Strategy, PriorPointsAreChargedButNeverEvaluated) {
  const SearchSpace space(sample_spec());
  explore::ExploreEngine sweeper({.threads = 2, .use_cache = false});
  const std::vector<explore::EvalResult> all =
      run_sweep(sweeper, space, ShardPlan(space.size(), 1).range(0));
  const std::vector<PriorPoint> prior = prior_points(space, all);
  ASSERT_EQ(prior.size(), space.point_count());
  const explore::EvalResult* best = explore::best_result(all);
  ASSERT_NE(best, nullptr);
  for (Strategy strategy : kAllStrategies) {
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 1000000;
    const ScratchDir dir(std::string(strategy_name(strategy)));
    const Logged run = run_logged(space, options, dir.path(), prior);
    // Every proposal is a seeded point: nothing is evaluated, and the
    // seeds alone make up the best.
    EXPECT_EQ(run.appended, 0u) << strategy_name(strategy);
    EXPECT_EQ(run.outcome.evaluations, space.point_count())
        << strategy_name(strategy);
    ASSERT_TRUE(run.outcome.found) << strategy_name(strategy);
    EXPECT_EQ(run.outcome.best.speedup, best->speedup)
        << strategy_name(strategy);
  }
}

TEST(Strategy, ResumedRunContinuesTheSameBudget) {
  // A run killed partway and resumed must land on the same best design
  // as an uninterrupted run of the full budget: the resumed run replays
  // the identical proposal sequence (same seed), answers the prior
  // trajectory from its seeded points, and stops at the same total
  // spend.
  const explore::ScenarioSpec spec = sample_spec();
  const SearchSpace space(spec);
  for (Strategy strategy : kAllStrategies) {
    SearchOptions full;
    full.strategy = strategy;
    full.budget = 60;
    full.seed = 11;
    explore::ExploreEngine uninterrupted;
    const SearchOutcome reference = run_search(uninterrupted, space, full);

    // "Kill" after a slice of the same budget — including a slice that
    // leaves less than one batch/neighborhood/generation of remaining
    // budget, which used to starve the resumed run into stopping before
    // replaying (the batch-affordability planner must see the seeded
    // trajectory as free).
    for (const std::uint64_t slice_budget : {20ull, 55ull}) {
      SearchOptions slice = full;
      slice.budget = slice_budget;
      const ScratchDir dir(std::string(strategy_name(strategy)) + "_" +
                           std::to_string(slice_budget));
      const Logged partial = run_logged(space, slice, dir.path());
      const std::vector<explore::EvalResult> records = RunLog::load(dir.path());
      const Logged resumed =
          run_logged(space, full, dir.path(), prior_points(space, records));

      EXPECT_EQ(resumed.outcome.evaluations, reference.evaluations)
          << strategy_name(strategy) << " slice " << slice_budget;
      EXPECT_EQ(partial.appended + resumed.appended, reference.evaluations)
          << strategy_name(strategy) << " slice " << slice_budget;
      ASSERT_EQ(resumed.outcome.found, reference.found)
          << strategy_name(strategy) << " slice " << slice_budget;
      if (reference.found) {
        EXPECT_DOUBLE_EQ(resumed.outcome.best.speedup, reference.best.speedup)
            << strategy_name(strategy) << " slice " << slice_budget;
      }
    }
  }
}

TEST(Strategy, ExhaustedBudgetAtResumeRunsNothing) {
  const SearchSpace space(sample_spec());
  for (Strategy strategy : kAllStrategies) {
    SearchOptions options;
    options.strategy = strategy;
    options.budget = 50;
    const ScratchDir dir(std::string(strategy_name(strategy)));
    const Logged spent = run_logged(space, options, dir.path());
    ASSERT_EQ(spent.appended, 50u) << strategy_name(strategy);
    const std::vector<explore::EvalResult> records = RunLog::load(dir.path());
    const Logged resumed =
        run_logged(space, options, dir.path(), prior_points(space, records));
    EXPECT_EQ(resumed.outcome.proposals, 0u) << strategy_name(strategy);
    EXPECT_EQ(resumed.outcome.evaluations, 50u) << strategy_name(strategy);
    EXPECT_EQ(resumed.appended, 0u) << strategy_name(strategy);
    // The prior records alone still make up the best and the archive.
    ASSERT_EQ(resumed.outcome.found, spent.outcome.found)
        << strategy_name(strategy);
    EXPECT_EQ(explore::best_line(resumed.outcome.best),
              explore::best_line(spent.outcome.best))
        << strategy_name(strategy);
    EXPECT_EQ(resumed.outcome.archive.size(), spent.outcome.archive.size())
        << strategy_name(strategy);
  }
}

TEST(Strategy, RejectsAZeroBudget) {
  const SearchSpace space(sample_spec());
  explore::ExploreEngine engine;
  SearchOptions options;
  options.budget = 0;
  EXPECT_THROW(run_search(engine, space, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Incremental Pareto archive (fold_archive): the maintenance run_search
// applies after every evaluation.  ROADMAP calls the archive
// "extreme-point-greedy"; these tests pin down what that does — and
// does not — mean: the fold keeps ONE entry per cost value (the
// speedup-greedy extreme), so cost-duplicate designs are pruned, but a
// *dominating* point (cheaper-or-equal cost, strictly higher speedup)
// is never dropped, in any insertion order.
// ---------------------------------------------------------------------------

/// A feasible result at (cost = r, speedup); distinct `tag`s make
/// distinct design points.
explore::EvalResult frontier_point(double cost, double speedup, int tag) {
  explore::EvalResult result;
  result.index = static_cast<std::size_t>(tag);
  result.scenario = "archive-test";
  result.variant = core::ModelVariant::kSymmetric;
  result.n = 64.0 + tag;  // distinct design identity per tag
  result.app = "app";
  result.growth = "linear";
  result.r = cost;  // kCoreArea cost of a symmetric point is max(r, rl) = r
  result.rl = 0.0;
  result.feasible = true;
  result.cores = 10.0;
  result.speedup = speedup;
  return result;
}

TEST(ParetoArchive, DominatingPointSurvivesEveryInsertionOrder) {
  // Adversarial fixture for the greedy prune: a cluster of cheap points
  // goes in first, then a point that dominates part of the frontier
  // arrives late (and again first), then an even better cost-twin.  The
  // greedy one-entry-per-cost rule must keep exactly the dominating
  // extremes, never dropping a dominating point.
  const std::vector<explore::EvalResult> points = {
      frontier_point(1.0, 2.0, 0), frontier_point(2.0, 3.0, 1),
      frontier_point(4.0, 4.0, 2), frontier_point(8.0, 5.0, 3),
      // Late arrival dominating the 4- and 8-cost members:
      frontier_point(2.0, 6.0, 4),
      // Cost twin of the dominator, better still:
      frontier_point(2.0, 7.0, 5),
  };
  std::vector<std::vector<explore::EvalResult>> orders = {points};
  orders.push_back({points[5], points[4], points[3], points[2], points[1],
                    points[0]});
  orders.push_back({points[4], points[0], points[5], points[2], points[1],
                    points[3]});
  for (const auto& order : orders) {
    std::vector<explore::EvalResult> archive;
    for (const auto& point : order) {
      fold_archive(archive, point, explore::CostMetric::kCoreArea);
    }
    // The non-dominated set of the fixture is {(1,2), (2,7)}.
    ASSERT_EQ(archive.size(), 2u);
    EXPECT_DOUBLE_EQ(explore::cost_of(archive[0],
                                      explore::CostMetric::kCoreArea), 1.0);
    EXPECT_DOUBLE_EQ(archive[0].speedup, 2.0);
    EXPECT_DOUBLE_EQ(explore::cost_of(archive[1],
                                      explore::CostMetric::kCoreArea), 2.0);
    EXPECT_DOUBLE_EQ(archive[1].speedup, 7.0);  // the dominating twin won
  }
}

TEST(ParetoArchive, RandomSequencesConvergeToTheBatchFrontier) {
  // The property behind the fixture: for ANY insertion sequence, the
  // incremental archive equals explore::pareto_frontier over the whole
  // sequence — the greedy prune loses nothing the batch frontier keeps.
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<explore::EvalResult> sequence;
    const int count = 3 + static_cast<int>(rng.bounded(40));
    for (int i = 0; i < count; ++i) {
      const double cost = 1.0 + static_cast<double>(rng.bounded(8));
      const double speedup = 1.0 + 0.5 * static_cast<double>(rng.bounded(12));
      sequence.push_back(frontier_point(cost, speedup, i));
    }
    std::vector<explore::EvalResult> archive;
    for (const auto& point : sequence) {
      fold_archive(archive, point, explore::CostMetric::kCoreArea);
    }
    const auto frontier =
        explore::pareto_frontier(sequence, explore::CostMetric::kCoreArea);
    ASSERT_EQ(archive.size(), frontier.size()) << "trial " << trial;
    for (std::size_t i = 0; i < archive.size(); ++i) {
      EXPECT_DOUBLE_EQ(
          explore::cost_of(archive[i], explore::CostMetric::kCoreArea),
          explore::cost_of(frontier[i], explore::CostMetric::kCoreArea));
      EXPECT_DOUBLE_EQ(archive[i].speedup, frontier[i].speedup);
    }
  }
}

TEST(ParetoArchive, IgnoresInfeasibleResults) {
  std::vector<explore::EvalResult> archive;
  explore::EvalResult infeasible = frontier_point(1.0, 100.0, 0);
  infeasible.feasible = false;
  fold_archive(archive, infeasible, explore::CostMetric::kCoreArea);
  EXPECT_TRUE(archive.empty());
}

TEST(ParetoArchive, HypervolumeRegressionFixture) {
  // Pinned-by-hand hypervolume of a known frontier against ref_cost 10:
  //   (1, 2): slice [1, 2)  × 2 = 2
  //   (2, 6): slice [2, 5)  × 6 = 18
  //   (5, 7): slice [5, 10) × 7 = 35      total = 55
  // Dominated and beyond-reference points must contribute nothing.
  std::vector<explore::EvalResult> archive;
  const std::vector<explore::EvalResult> points = {
      frontier_point(1.0, 2.0, 0),  frontier_point(2.0, 6.0, 1),
      frontier_point(5.0, 7.0, 2),
      frontier_point(3.0, 4.0, 3),   // dominated by (2, 6)
      frontier_point(12.0, 50.0, 4),  // beyond the reference cost
  };
  for (const auto& point : points) {
    fold_archive(archive, point, explore::CostMetric::kCoreArea);
  }
  EXPECT_DOUBLE_EQ(
      explore::hypervolume(archive, explore::CostMetric::kCoreArea, 10.0),
      55.0);
  // The raw (unfolded) sequence reduces to the same value — hypervolume
  // cleans its input, so archive and batch agree.
  EXPECT_DOUBLE_EQ(
      explore::hypervolume(points, explore::CostMetric::kCoreArea, 10.0),
      55.0);
}

}  // namespace
}  // namespace mergescale::search
