#include "workloads/kmeans.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "workloads/dataset.hpp"

namespace mergescale::workloads {
namespace {

PointSet tight_clusters() {
  // Two well-separated blobs in 2-D, 30 points each.
  PointSet points(60, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    points.row(i)[0] = 0.0 + 0.01 * static_cast<double>(i % 5);
    points.row(i)[1] = 0.0 + 0.01 * static_cast<double>(i % 7);
  }
  for (std::size_t i = 30; i < 60; ++i) {
    points.row(i)[0] = 100.0 + 0.01 * static_cast<double>(i % 5);
    points.row(i)[1] = 100.0 + 0.01 * static_cast<double>(i % 7);
  }
  return points;
}

TEST(InitCenters, PicksDistinctPoints) {
  const PointSet points = tight_clusters();
  std::vector<double> centers(4 * 2);
  init_centers(points, 4, 1, centers);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      const bool same = centers[a * 2] == centers[b * 2] &&
                        centers[a * 2 + 1] == centers[b * 2 + 1];
      EXPECT_FALSE(same) << a << "," << b;
    }
  }
}

TEST(InitCenters, RejectsBadArguments) {
  const PointSet points = tight_clusters();
  std::vector<double> centers(2 * 2);
  EXPECT_THROW(init_centers(points, 0, 1, centers), std::invalid_argument);
  EXPECT_THROW(init_centers(points, 3, 1, centers), std::invalid_argument);
  std::vector<double> too_many(100 * 2);
  EXPECT_THROW(init_centers(points, 100, 1, too_many),
               std::invalid_argument);
}

TEST(KmeansNative, SeparatesTwoBlobs) {
  const PointSet points = tight_clusters();
  ClusteringConfig config;
  config.clusters = 2;
  config.iterations = 10;
  runtime::PhaseLedger ledger;
  const ClusteringResult result = run_kmeans_native(points, config, 2, ledger);
  // All points of each blob share one label, and the labels differ.
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
  for (std::size_t i = 31; i < 60; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[30]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[30]);
  EXPECT_LT(result.inertia, 1.0);  // tight blobs -> tiny inertia
}

TEST(KmeansNative, ResultIndependentOfThreadCount) {
  const core::DatasetShape shape{"t", 800, 5, 4};
  const PointSet points = gaussian_mixture(shape, 9);
  ClusteringConfig config;
  config.clusters = 4;
  config.iterations = 4;

  runtime::PhaseLedger ledger1;
  const ClusteringResult r1 = run_kmeans_native(points, config, 1, ledger1);
  for (int threads : {2, 4}) {
    runtime::PhaseLedger ledger;
    const ClusteringResult rt =
        run_kmeans_native(points, config, threads, ledger);
    ASSERT_EQ(rt.assignments.size(), r1.assignments.size());
    // Reduction order may change floating-point sums, but with separated
    // Gaussian blobs the assignments must be identical.
    EXPECT_EQ(rt.assignments, r1.assignments) << threads;
    for (std::size_t k = 0; k < r1.centers.size(); ++k) {
      EXPECT_NEAR(rt.centers[k], r1.centers[k], 1e-9) << threads;
    }
  }
}

TEST(KmeansNative, ReductionStrategiesAgree) {
  const core::DatasetShape shape{"t", 500, 4, 3};
  const PointSet points = gaussian_mixture(shape, 17);
  ClusteringConfig config;
  config.clusters = 3;
  config.iterations = 3;

  ClusteringResult reference;
  bool first = true;
  for (auto strategy : {runtime::ReductionStrategy::kSerial,
                        runtime::ReductionStrategy::kTree,
                        runtime::ReductionStrategy::kPrivatized}) {
    config.strategy = strategy;
    runtime::PhaseLedger ledger;
    const ClusteringResult result =
        run_kmeans_native(points, config, 4, ledger);
    if (first) {
      reference = result;
      first = false;
    } else {
      EXPECT_EQ(result.assignments, reference.assignments);
    }
  }
}

TEST(KmeansNative, LedgerAccountsAllPhases) {
  const PointSet points = tight_clusters();
  ClusteringConfig config;
  config.clusters = 2;
  config.iterations = 3;
  runtime::PhaseLedger ledger;
  run_kmeans_native(points, config, 2, ledger);
  EXPECT_GT(ledger.ops(runtime::Phase::kParallel), 0u);
  EXPECT_GT(ledger.ops(runtime::Phase::kReduction), 0u);
  EXPECT_GT(ledger.ops(runtime::Phase::kSerial), 0u);
  EXPECT_GT(ledger.seconds(runtime::Phase::kParallel), 0.0);
}

TEST(KmeansNative, ReductionOpsGrowLinearlyWithThreads) {
  // The paper's central observation, measured natively via op counts.
  const PointSet points = tight_clusters();
  ClusteringConfig config;
  config.clusters = 2;
  config.iterations = 1;
  auto reduction_ops = [&](int threads) {
    runtime::PhaseLedger ledger;
    run_kmeans_native(points, config, threads, ledger);
    return ledger.ops(runtime::Phase::kReduction);
  };
  const auto ops1 = reduction_ops(1);
  const auto ops2 = reduction_ops(2);
  const auto ops4 = reduction_ops(4);
  EXPECT_EQ(ops2, 2 * ops1);
  EXPECT_EQ(ops4, 4 * ops1);
}

TEST(KmeansNative, EmptyClusterKeepsCenter) {
  // 3 clusters but only 2 blobs: one center may end up empty and must not
  // produce NaNs.
  const PointSet points = tight_clusters();
  ClusteringConfig config;
  config.clusters = 3;
  config.iterations = 5;
  runtime::PhaseLedger ledger;
  const ClusteringResult result = run_kmeans_native(points, config, 2, ledger);
  for (double c : result.centers) {
    EXPECT_TRUE(std::isfinite(c));
  }
}

TEST(KmeansKernel, CountingExecutorSeesWork) {
  const PointSet points = tight_clusters();
  std::vector<double> centers(2 * 2, 0.0);
  init_centers(points, 2, 1, centers);
  std::vector<int> assignments(points.size(), -1);
  runtime::PartialBuffers<double> parts(1, 4);
  runtime::PartialBuffers<std::uint64_t> counts(1, 2);
  CountingExecutor ex;
  kmeans_assign_block(ex, points, centers, 2, 0, points.size(), assignments,
                      parts.partial(0), counts.partial(0));
  // Every point loads its own coords + both centers' coords.
  EXPECT_GE(ex.loads, points.size() * (2 + 2 * 2));
  EXPECT_GT(ex.ops, 0u);
  EXPECT_GT(ex.stores, 0u);
}

}  // namespace
}  // namespace mergescale::workloads
