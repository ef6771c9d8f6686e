#include "runtime/reduction.hpp"

#include <numeric>

#include <gtest/gtest.h>

#include "sim/machine.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::runtime {
namespace {

// Fills buffers so partial(t)[i] = (t+1) * (i+1); the reduced value of
// element i is (i+1) * T(T+1)/2.
template <typename T>
void fill_pattern(PartialBuffers<T>& buffers) {
  for (int t = 0; t < buffers.threads(); ++t) {
    auto row = buffers.partial(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<T>((t + 1) * (i + 1));
    }
  }
}

template <typename T>
T expected_value(int threads, std::size_t i) {
  return static_cast<T>((i + 1) * threads * (threads + 1) / 2);
}

TEST(PartialBuffers, ShapeAndZeroInit) {
  PartialBuffers<double> buffers(3, 10);
  EXPECT_EQ(buffers.threads(), 3);
  EXPECT_EQ(buffers.width(), 10u);
  for (int t = 0; t < 3; ++t) {
    for (double v : buffers.partial(t)) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(PartialBuffers, RowsAreDisjoint) {
  PartialBuffers<int> buffers(2, 5);
  buffers.partial(0)[0] = 7;
  EXPECT_EQ(buffers.partial(1)[0], 0);
}

TEST(PartialBuffers, RowsAreCacheLinePadded) {
  PartialBuffers<double> buffers(2, 3);  // 3 doubles < one 64B line
  const double* row0 = buffers.partial(0).data();
  const double* row1 = buffers.partial(1).data();
  EXPECT_GE((row1 - row0) * sizeof(double), 64u);
}

TEST(PartialBuffers, ClearZeroes) {
  PartialBuffers<int> buffers(2, 4);
  fill_pattern(buffers);
  buffers.clear();
  for (int t = 0; t < 2; ++t) {
    for (int v : buffers.partial(t)) EXPECT_EQ(v, 0);
  }
}

TEST(PartialBuffers, RejectsBadShape) {
  EXPECT_THROW(PartialBuffers<int>(0, 4), std::invalid_argument);
  EXPECT_THROW(PartialBuffers<int>(2, 0), std::invalid_argument);
  PartialBuffers<int> ok(2, 4);
  EXPECT_THROW(ok.partial(2), std::invalid_argument);
}

class ReductionStrategies
    : public ::testing::TestWithParam<std::tuple<ReductionStrategy, int>> {};

TEST_P(ReductionStrategies, ComputesExactSum) {
  const auto [strategy, threads] = GetParam();
  constexpr std::size_t kWidth = 37;  // not divisible by any team size
  ThreadTeam team(threads);
  PartialBuffers<double> buffers(threads, kWidth);
  fill_pattern(buffers);
  std::vector<double> dest(kWidth, 0.0);
  reduce(merge_schedule(strategy, threads, kWidth), team,
         std::span<double>(dest), buffers);
  for (std::size_t i = 0; i < kWidth; ++i) {
    EXPECT_DOUBLE_EQ(dest[i], expected_value<double>(threads, i))
        << "i=" << i << " strategy="
        << reduction_strategy_name(strategy) << " threads=" << threads;
  }
}

TEST_P(ReductionStrategies, AccumulatesOntoExistingDest) {
  const auto [strategy, threads] = GetParam();
  ThreadTeam team(threads);
  PartialBuffers<double> buffers(threads, 8);
  fill_pattern(buffers);
  std::vector<double> dest(8, 100.0);
  reduce(merge_schedule(strategy, threads, 8), team, std::span<double>(dest),
         buffers);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(dest[i], 100.0 + expected_value<double>(threads, i));
  }
}

TEST_P(ReductionStrategies, SimulatedMergeComputesExactSum) {
  const auto [strategy, threads] = GetParam();
  constexpr std::size_t kWidth = 37;
  sim::Machine machine(sim::MachineConfig::icpp2011(threads));
  workloads::SimulatedPhases phases(machine);
  PartialBuffers<double> buffers(threads, kWidth);
  fill_pattern(buffers);
  std::vector<double> dest(kWidth, 0.0);
  phases.merge(strategy, buffers, std::span<double>(dest));
  for (std::size_t i = 0; i < kWidth; ++i) {
    EXPECT_DOUBLE_EQ(dest[i], expected_value<double>(threads, i)) << i;
  }
  EXPECT_GT(phases.phases().reduction, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndTeams, ReductionStrategies,
    ::testing::Combine(::testing::Values(ReductionStrategy::kSerial,
                                         ReductionStrategy::kTree,
                                         ReductionStrategy::kPrivatized),
                       ::testing::Values(1, 2, 3, 4, 7, 8)),
    [](const auto& info) {
      return std::string(reduction_strategy_name(std::get<0>(info.param))) +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(ReductionStrategies, IntegerSums) {
  ThreadTeam team(4);
  PartialBuffers<std::uint64_t> buffers(4, 16);
  fill_pattern(buffers);
  std::vector<std::uint64_t> dest(16, 0);
  reduce(merge_schedule(ReductionStrategy::kTree, 4, 16), team,
         std::span<std::uint64_t>(dest), buffers);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(dest[i], expected_value<std::uint64_t>(4, i));
  }
}

TEST(ReductionStrategies, SizeMismatchThrows) {
  ThreadTeam team(2);
  PartialBuffers<double> buffers(2, 8);
  std::vector<double> wrong(7, 0.0);
  EXPECT_THROW(reduce(merge_schedule(ReductionStrategy::kSerial, 2, 7), team,
                      std::span<double>(wrong), buffers),
               std::invalid_argument);
  PartialBuffers<double> other(3, 8);
  std::vector<double> dest(8, 0.0);
  EXPECT_THROW(reduce(merge_schedule(ReductionStrategy::kTree, 3, 8), team,
                      std::span<double>(dest), other),
               std::invalid_argument);
}

/// The merging-phase operations the ledger charges: the critical path of
/// the strategy's schedule.
std::uint64_t charge(ReductionStrategy strategy, int threads,
                     std::size_t width) {
  return critical_path(merge_schedule(strategy, threads, width));
}

TEST(CriticalPathOps, SerialIsLinearInThreads) {
  EXPECT_EQ(charge(ReductionStrategy::kSerial, 1, 100), 100u);
  EXPECT_EQ(charge(ReductionStrategy::kSerial, 8, 100), 800u);
  EXPECT_EQ(charge(ReductionStrategy::kSerial, 16, 100), 1600u);
}

TEST(CriticalPathOps, TreeIsLogarithmicInThreads) {
  // levels = ceil(log2(t)), plus the final combine into dest.
  EXPECT_EQ(charge(ReductionStrategy::kTree, 1, 100), 100u);
  EXPECT_EQ(charge(ReductionStrategy::kTree, 2, 100), 200u);
  EXPECT_EQ(charge(ReductionStrategy::kTree, 8, 100), 400u);
  EXPECT_EQ(charge(ReductionStrategy::kTree, 16, 100), 500u);
}

TEST(CriticalPathOps, PrivatizedIsConstantInThreads) {
  EXPECT_EQ(charge(ReductionStrategy::kPrivatized, 1, 100), 100u);
  EXPECT_EQ(charge(ReductionStrategy::kPrivatized, 4, 100), 100u);
  // Imbalance rounding: 100/16 -> 7 per thread, 7*16 = 112.
  EXPECT_EQ(charge(ReductionStrategy::kPrivatized, 16, 100), 112u);
}

TEST(CriticalPathOps, EqualsTheClosedForms) {
  // The per-strategy formulas the ledger charged before the schedules
  // existed: serial t·w, tree w per level plus w for the combine,
  // privatized ceil(w/t)·t.
  for (int t = 1; t <= 64; ++t) {
    std::uint64_t levels = 0;
    for (int span = 1; span < t; span *= 2) ++levels;
    const auto ut = static_cast<std::uint64_t>(t);
    for (std::uint64_t w = 1; w <= 300; ++w) {
      EXPECT_EQ(charge(ReductionStrategy::kSerial, t, w), ut * w);
      EXPECT_EQ(charge(ReductionStrategy::kTree, t, w), (levels + 1) * w);
      EXPECT_EQ(charge(ReductionStrategy::kPrivatized, t, w),
                (w + ut - 1) / ut * ut)
          << "t=" << t << " w=" << w;
    }
  }
}

TEST(MergeSchedule, StepsKeepTheNativeTimingShape) {
  // Serial: one core-0 step, so reduce() opens no team region.
  const auto serial = merge_schedule(ReductionStrategy::kSerial, 8, 10);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0].size(), 1u);
  // Tree: log2(8) = 3 team-wide levels, then the core-0 combine.
  const auto tree = merge_schedule(ReductionStrategy::kTree, 8, 10);
  ASSERT_EQ(tree.size(), 4u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(tree[s].size(), 8u);
  EXPECT_EQ(tree[3].size(), 1u);
  // Privatized: one team-wide step.
  const auto priv = merge_schedule(ReductionStrategy::kPrivatized, 8, 10);
  ASSERT_EQ(priv.size(), 1u);
  EXPECT_EQ(priv[0].size(), 8u);
}

TEST(MergeSchedule, SerialRunsWithoutTheTeam) {
  // A serial merge never enters a team region, so the team's size does
  // not have to match the partials.
  ThreadTeam team(3);
  PartialBuffers<std::uint64_t> buffers(5, 6);
  fill_pattern(buffers);
  std::vector<std::uint64_t> dest(6, 0);
  reduce(merge_schedule(ReductionStrategy::kSerial, 5, 6), team,
         std::span<std::uint64_t>(dest), buffers);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(dest[i], expected_value<std::uint64_t>(5, i));
  }
}

}  // namespace
}  // namespace mergescale::runtime
