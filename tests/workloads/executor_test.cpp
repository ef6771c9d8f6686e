#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include "runtime/reduction.hpp"
#include "sim/trace.hpp"

namespace mergescale::runtime {
namespace {

TEST(ExecutorConcept, AllExecutorsSatisfyIt) {
  static_assert(Executor<NativeExecutor>);
  static_assert(Executor<CountingExecutor>);
  static_assert(Executor<sim::RecordingExecutor>);
  SUCCEED();
}

TEST(CountingExecutor, CountsEachAnnotationKind) {
  CountingExecutor ex;
  int x = 0;
  ex.load(&x);
  ex.load(&x);
  ex.store(&x);
  ex.compute(5);
  ex.compute(2);
  EXPECT_EQ(ex.loads, 2u);
  EXPECT_EQ(ex.stores, 1u);
  EXPECT_EQ(ex.ops, 7u);
  EXPECT_EQ(ex.total(), 10u);
}

/// Runs every step of `schedule` core by core with executor `ex`.
template <typename T>
void run_schedule(NativeExecutor& ex, const std::vector<MergeStep>& schedule,
                  PartialBuffers<T>& partials, std::span<T> dest) {
  for (const MergeStep& step : schedule) {
    for (const MergeWork& work : step) merge(ex, work, partials, dest);
  }
}

TEST(MergeKernels, SerialKernelEqualsLoopOracle) {
  PartialBuffers<double> partials(3, 8);
  for (int t = 0; t < 3; ++t) {
    auto row = partials.partial(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<double>((t + 1) * (i + 2));
    }
  }
  std::vector<double> via_kernel(8, 1.0);
  std::vector<double> oracle(8, 1.0);
  NativeExecutor ex;
  merge(ex, MergeWork{0, 3, MergeWork::kDest, 0, 8}, partials,
        std::span<double>(via_kernel));
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    for (int t = 0; t < 3; ++t) oracle[i] += partials.partial(t)[i];
  }
  EXPECT_EQ(via_kernel, oracle);
}

TEST(MergeKernels, TreeStepsComposeToFullSum) {
  constexpr int kThreads = 8;
  constexpr std::size_t kWidth = 5;
  PartialBuffers<double> partials(kThreads, kWidth);
  for (int t = 0; t < kThreads; ++t) {
    auto row = partials.partial(t);
    for (std::size_t i = 0; i < kWidth; ++i) {
      row[i] = static_cast<double>(t + 1);
    }
  }
  NativeExecutor ex;
  std::vector<double> dest(kWidth, 0.0);
  run_schedule(ex, merge_schedule(ReductionStrategy::kTree, kThreads, kWidth),
               partials, std::span<double>(dest));
  for (double v : dest) {
    EXPECT_DOUBLE_EQ(v, 36.0);  // 1+2+...+8
  }
}

TEST(MergeKernels, PrivatizedSlicesCoverEverything) {
  constexpr int kThreads = 4;
  constexpr std::size_t kWidth = 11;  // not divisible by kThreads
  PartialBuffers<std::uint64_t> partials(kThreads, kWidth);
  for (int t = 0; t < kThreads; ++t) {
    auto row = partials.partial(t);
    for (std::size_t i = 0; i < kWidth; ++i) row[i] = i + 1;
  }
  std::vector<std::uint64_t> dest(kWidth, 0);
  NativeExecutor ex;
  run_schedule(ex,
               merge_schedule(ReductionStrategy::kPrivatized, kThreads, kWidth),
               partials, std::span<std::uint64_t>(dest));
  for (std::size_t i = 0; i < kWidth; ++i) {
    EXPECT_EQ(dest[i], kThreads * (i + 1)) << i;
  }
}

TEST(MergeKernels, RecordingExecutorSeesAllElements) {
  PartialBuffers<double> partials(2, 4);
  std::vector<double> dest(4, 0.0);
  sim::Trace trace;
  sim::RecordingExecutor ex(trace);
  merge(ex, MergeWork{0, 2, MergeWork::kDest, 0, 4}, partials,
        std::span<double>(dest));
  ex.flush_compute();
  const sim::TraceSummary summary = sim::summarize(trace);
  // Per element and thread: load partial + load dest + store dest.
  EXPECT_EQ(summary.loads, 2u * 4u * 2u);
  EXPECT_EQ(summary.stores, 4u * 2u);
  EXPECT_EQ(summary.compute, 4u * 2u);
}

}  // namespace
}  // namespace mergescale::runtime
