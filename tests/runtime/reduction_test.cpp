#include "runtime/reduction.hpp"

#include <numeric>

#include <gtest/gtest.h>

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
  reduce(strategy, team, std::span<double>(dest), buffers);
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
  reduce(strategy, team, std::span<double>(dest), buffers);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(dest[i], 100.0 + expected_value<double>(threads, i));
  }
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
  reduce(ReductionStrategy::kTree, team, std::span<std::uint64_t>(dest),
         buffers);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(dest[i], expected_value<std::uint64_t>(4, i));
  }
}

TEST(ReductionStrategies, SizeMismatchThrows) {
  ThreadTeam team(2);
  PartialBuffers<double> buffers(2, 8);
  std::vector<double> wrong(7, 0.0);
  EXPECT_THROW(reduce(ReductionStrategy::kSerial, team,
                      std::span<double>(wrong), buffers),
               std::invalid_argument);
  PartialBuffers<double> other(3, 8);
  std::vector<double> dest(8, 0.0);
  EXPECT_THROW(
      reduce(ReductionStrategy::kTree, team, std::span<double>(dest), other),
      std::invalid_argument);
}

TEST(CriticalPathOps, SerialIsLinearInThreads) {
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kSerial, 1, 100), 100u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kSerial, 8, 100), 800u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kSerial, 16, 100), 1600u);
}

TEST(CriticalPathOps, TreeIsLogarithmicInThreads) {
  // levels = ceil(log2(t)), plus the final combine into dest.
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kTree, 1, 100), 100u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kTree, 2, 100), 200u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kTree, 8, 100), 400u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kTree, 16, 100), 500u);
}

TEST(CriticalPathOps, PrivatizedIsConstantInThreads) {
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kPrivatized, 1, 100), 100u);
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kPrivatized, 4, 100), 100u);
  // Imbalance rounding: 100/16 -> 7 per thread, 7*16 = 112.
  EXPECT_EQ(critical_path_ops(ReductionStrategy::kPrivatized, 16, 100), 112u);
}

TEST(CommunicationElements, MatchesPaperFormula) {
  EXPECT_EQ(communication_elements(1, 72), 0u);
  EXPECT_EQ(communication_elements(16, 72), 2u * 15u * 72u);
}

}  // namespace
}  // namespace mergescale::runtime
