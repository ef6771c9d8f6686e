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
  merge_slice(ex, partials, std::span<double>(via_kernel), 0, 8);
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
  for (int stride = 1; stride < kThreads; stride *= 2) {
    for (int t = 0; t < kThreads; ++t) {
      if (const int src = tree_source(t, stride, kThreads); src >= 0) {
        merge_row(ex, std::span<const double>(partials.partial(src)),
                  partials.partial(t));
      }
    }
  }
  std::vector<double> dest(kWidth, 0.0);
  merge_row(ex, std::span<const double>(partials.partial(0)),
            std::span<double>(dest));
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
  for (int tid = 0; tid < kThreads; ++tid) {
    auto [lo, hi] = ThreadTeam::partition(0, kWidth, tid, kThreads);
    merge_slice(ex, partials, std::span<std::uint64_t>(dest), lo, hi);
  }
  for (std::size_t i = 0; i < kWidth; ++i) {
    EXPECT_EQ(dest[i], kThreads * (i + 1)) << i;
  }
}

TEST(MergeKernels, RecordingExecutorSeesAllElements) {
  PartialBuffers<double> partials(2, 4);
  std::vector<double> dest(4, 0.0);
  sim::Trace trace;
  sim::RecordingExecutor ex(trace);
  merge_slice(ex, partials, std::span<double>(dest), 0, 4);
  ex.flush_compute();
  const sim::TraceSummary summary = sim::summarize(trace);
  // Per element and thread: load partial + load dest + store dest.
  EXPECT_EQ(summary.loads, 2u * 4u * 2u);
  EXPECT_EQ(summary.stores, 4u * 2u);
  EXPECT_EQ(summary.compute, 4u * 2u);
}

}  // namespace
}  // namespace mergescale::runtime
