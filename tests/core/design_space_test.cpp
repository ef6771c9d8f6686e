#include "core/design_space.hpp"

#include <gtest/gtest.h>

#include "core/reduction_model.hpp"

namespace mergescale::core {
namespace {

const ChipConfig kChip = ChipConfig::icpp2011();
const GrowthFunction kLinear = GrowthFunction::linear();

AppParams sample() { return AppParams{"sample", 0.99, 0.6, 0.8}; }

EvalRequest symmetric_request() {
  return EvalRequest{ModelVariant::kSymmetric, kChip, sample(), kLinear};
}

EvalRequest asymmetric_request(double r) {
  EvalRequest request{ModelVariant::kAsymmetric, kChip, sample(), kLinear};
  request.r = r;
  return request;
}

TEST(PowerOfTwoSizes, CoversBudget) {
  const auto sizes = power_of_two_sizes(256);
  ASSERT_EQ(sizes.size(), 9u);  // 1..256
  EXPECT_DOUBLE_EQ(sizes.front(), 1.0);
  EXPECT_DOUBLE_EQ(sizes.back(), 256.0);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_DOUBLE_EQ(sizes[i], 2 * sizes[i - 1]);
  }
}

TEST(PowerOfTwoSizes, NonPowerBudgetStopsBelow) {
  const auto sizes = power_of_two_sizes(100);
  EXPECT_DOUBLE_EQ(sizes.back(), 64.0);
}

TEST(SweepSymmetric, EvaluatesEverySize) {
  const auto sizes = power_of_two_sizes(kChip.n);
  const auto sweep = evaluate_sweep(symmetric_request(), sizes);
  ASSERT_EQ(sweep.size(), sizes.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_DOUBLE_EQ(sweep[i].r, sizes[i]);
    EXPECT_DOUBLE_EQ(sweep[i].speedup,
                     speedup_symmetric(kChip, sample(), kLinear, sizes[i]));
  }
}

TEST(SweepAsymmetric, SkipsInfeasiblePoints) {
  const auto sizes = power_of_two_sizes(kChip.n);
  // r = 16: rl = 248..255 infeasible, but all power-of-two rl values fit
  // except r > n - rl cases; for rl = 256 the large core fills the chip.
  const auto sweep = evaluate_sweep(asymmetric_request(16), sizes);
  for (const auto& p : sweep) {
    EXPECT_TRUE(p.rl == kChip.n || 16 <= kChip.n - p.rl) << p.rl;
  }
}

TEST(BestPoint, PicksMaximum) {
  std::vector<DesignPoint> sweep{{1, 0, 10.0}, {2, 0, 30.0}, {4, 0, 20.0}};
  EXPECT_DOUBLE_EQ(best_point(sweep).speedup, 30.0);
  EXPECT_DOUBLE_EQ(best_point(sweep).r, 2.0);
}

TEST(BestPoint, ThrowsOnEmpty) {
  EXPECT_THROW(best_point({}), std::invalid_argument);
}

TEST(TryBestPoint, EmptySweepYieldsNulloptInsteadOfThrowing) {
  const std::vector<DesignPoint> empty;
  static_assert(noexcept(try_best_point(empty)),
                "the engine relies on try_best_point never throwing");
  EXPECT_FALSE(try_best_point(empty).has_value());
}

TEST(TryBestPoint, SingletonSweepReturnsItsOnlyPoint) {
  const auto best = try_best_point({{8, 0, 42.0}});
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->r, 8.0);
  EXPECT_DOUBLE_EQ(best->speedup, 42.0);
}

TEST(TryBestPoint, TiesResolveToTheEarliestPoint) {
  // Equal speedups: the first point in sweep order wins, so callers get
  // a deterministic (and reproducible) design choice.
  const auto best =
      try_best_point({{1, 0, 30.0}, {2, 0, 30.0}, {4, 0, 10.0}});
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->r, 1.0);
}

TEST(TryBestPoint, AgreesWithBestPointOnNonEmptySweeps) {
  const std::vector<DesignPoint> sweep{{1, 0, 10.0}, {2, 0, 30.0},
                                       {4, 0, 20.0}};
  const auto best = try_best_point(sweep);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->speedup, best_point(sweep).speedup);
  EXPECT_DOUBLE_EQ(best->r, best_point(sweep).r);
}

TEST(TryBestPoint, FullyInfeasibleAsymmetricSweepDegradesToNullopt) {
  // r = 255 cannot sit next to any power-of-two large core on a 256-BCE
  // chip (rl = 256 leaves no room, smaller rl leaves < 255): the sweep
  // comes back empty and try_best_point reports "no design" gracefully.
  const std::vector<double> sizes{2.0, 4.0, 8.0, 16.0};
  const auto sweep = evaluate_sweep(asymmetric_request(255.0), sizes);
  EXPECT_TRUE(sweep.empty());
  EXPECT_FALSE(try_best_point(sweep).has_value());
}

TEST(OptimalSymmetric, ConsistentWithExhaustiveSweep) {
  const auto sweep =
      evaluate_sweep(symmetric_request(), power_of_two_sizes(kChip.n));
  const DesignPoint expected = best_point(sweep);
  const DesignPoint actual = optimal_symmetric(kChip, sample(), kLinear);
  EXPECT_DOUBLE_EQ(actual.r, expected.r);
  EXPECT_DOUBLE_EQ(actual.speedup, expected.speedup);
}

TEST(OptimalAsymmetric, AtLeastAsGoodAsAnySweptPair) {
  const DesignPoint best = optimal_asymmetric(kChip, sample(), kLinear);
  const auto sizes = power_of_two_sizes(kChip.n);
  for (double r : {1.0, 4.0, 16.0}) {
    for (const auto& p : evaluate_sweep(asymmetric_request(r), sizes)) {
      EXPECT_GE(best.speedup + 1e-9, p.speedup) << "rl=" << p.rl << " r=" << r;
    }
  }
}

TEST(SweepSymmetricComm, MatchesDirectEvaluation) {
  const CommAppParams app = CommAppParams::from(sample());
  const auto sizes = power_of_two_sizes(kChip.n);
  const auto sweep = evaluate_sweep(
      make_comm_request(ModelVariant::kSymmetricComm, kChip, app,
                        GrowthFunction::parallel(), mesh_comm_growth()),
      sizes);
  ASSERT_EQ(sweep.size(), sizes.size());
  for (const auto& p : sweep) {
    EXPECT_DOUBLE_EQ(
        p.speedup,
        comm_speedup_symmetric(kChip, app, GrowthFunction::parallel(),
                               mesh_comm_growth(), p.r));
  }
}

TEST(SweepAsymmetricComm, SkipsInfeasiblePoints) {
  const CommAppParams app = CommAppParams::from(sample());
  EvalRequest request =
      make_comm_request(ModelVariant::kAsymmetricComm, kChip, app,
                        GrowthFunction::parallel(), mesh_comm_growth());
  request.r = 64;
  const auto sweep = evaluate_sweep(request, power_of_two_sizes(kChip.n));
  for (const auto& p : sweep) {
    EXPECT_TRUE(p.rl == kChip.n || 64 <= kChip.n - p.rl) << p.rl;
  }
}

}  // namespace
}  // namespace mergescale::core
