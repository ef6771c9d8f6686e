#include "workloads/hop.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "workloads/dataset.hpp"

namespace mergescale::workloads {
namespace {

// Two dense, well-separated clumps of particles plus no background: HOP
// must find (at least) two groups, one per clump, with the clumps never
// merged together.
PointSet two_clumps(std::size_t per_clump) {
  PointSet points(2 * per_clump, 3);
  for (std::size_t i = 0; i < per_clump; ++i) {
    const double t = static_cast<double>(i);
    points.row(i)[0] = 0.1 * std::sin(t * 0.7);
    points.row(i)[1] = 0.1 * std::cos(t * 1.3);
    points.row(i)[2] = 0.1 * std::sin(t * 2.1);
  }
  for (std::size_t i = per_clump; i < 2 * per_clump; ++i) {
    const double t = static_cast<double>(i);
    points.row(i)[0] = 100.0 + 0.1 * std::sin(t * 0.9);
    points.row(i)[1] = 100.0 + 0.1 * std::cos(t * 1.1);
    points.row(i)[2] = 100.0 + 0.1 * std::sin(t * 1.7);
  }
  return points;
}

TEST(HopNative, FindsSeparatedClumps) {
  const PointSet particles = two_clumps(100);
  HopConfig config;
  runtime::PhaseLedger ledger;
  const HopResult result = run_hop_native(particles, config, 2, ledger);
  ASSERT_EQ(result.group_of.size(), particles.size());
  // Particles within each clump share a group; clumps differ.
  std::set<int> groups_a;
  std::set<int> groups_b;
  for (std::size_t i = 0; i < 100; ++i) groups_a.insert(result.group_of[i]);
  for (std::size_t i = 100; i < 200; ++i) groups_b.insert(result.group_of[i]);
  for (int g : groups_a) {
    EXPECT_EQ(groups_b.count(g), 0u) << "clumps merged";
  }
  EXPECT_GE(result.groups, 2);
}

TEST(HopNative, DensitiesPositiveAndPeakInClumpCore) {
  const PointSet particles = plummer_particles(2000, 3);
  HopConfig config;
  runtime::PhaseLedger ledger;
  const HopResult result = run_hop_native(particles, config, 2, ledger);
  for (double rho : result.density) {
    EXPECT_GT(rho, 0.0);
    EXPECT_TRUE(std::isfinite(rho));
  }
}

TEST(HopNative, ResultIndependentOfThreadCount) {
  const PointSet particles = plummer_particles(1500, 7);
  HopConfig config;
  runtime::PhaseLedger l1;
  const HopResult r1 = run_hop_native(particles, config, 1, l1);
  for (int threads : {2, 4}) {
    runtime::PhaseLedger lt;
    const HopResult rt = run_hop_native(particles, config, threads, lt);
    EXPECT_EQ(rt.groups, r1.groups) << threads;
    EXPECT_EQ(rt.group_of, r1.group_of) << threads;
    for (std::size_t i = 0; i < r1.density.size(); ++i) {
      ASSERT_DOUBLE_EQ(rt.density[i], r1.density[i]) << threads;
    }
  }
}

TEST(HopNative, EveryParticleGrouped) {
  const PointSet particles = plummer_particles(800, 9);
  HopConfig config;
  runtime::PhaseLedger ledger;
  const HopResult result = run_hop_native(particles, config, 3, ledger);
  for (int g : result.group_of) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, result.groups);
  }
  // Group ids are dense: every id in [0, groups) appears.
  std::vector<bool> used(static_cast<std::size_t>(result.groups), false);
  for (int g : result.group_of) used[static_cast<std::size_t>(g)] = true;
  for (bool u : used) EXPECT_TRUE(u);
}

TEST(HopNative, MergeSaddleControlsGroupCount) {
  // A permissive saddle threshold merges more groups than a strict one.
  const PointSet particles = plummer_particles(1200, 21);
  HopConfig strict;
  strict.merge_saddle = 0.99;
  HopConfig permissive;
  permissive.merge_saddle = 0.01;
  runtime::PhaseLedger l1;
  runtime::PhaseLedger l2;
  const HopResult strict_result = run_hop_native(particles, strict, 2, l1);
  const HopResult permissive_result =
      run_hop_native(particles, permissive, 2, l2);
  EXPECT_LE(permissive_result.groups, strict_result.groups);
}

TEST(HopNative, LedgerSeesAllPhaseClasses) {
  const PointSet particles = plummer_particles(600, 2);
  HopConfig config;
  runtime::PhaseLedger ledger;
  run_hop_native(particles, config, 2, ledger);
  EXPECT_GT(ledger.ops(runtime::Phase::kParallel), 0u);
  EXPECT_GT(ledger.ops(runtime::Phase::kReduction), 0u);
  EXPECT_GT(ledger.ops(runtime::Phase::kSerial), 0u);
}

TEST(HopNative, ReductionOpsGrowWithThreads) {
  const PointSet particles = plummer_particles(600, 4);
  HopConfig config;
  auto reduction_ops = [&](int threads) {
    runtime::PhaseLedger ledger;
    run_hop_native(particles, config, threads, ledger);
    return ledger.ops(runtime::Phase::kReduction);
  };
  // The histogram merge is linear in the thread count, so total merge
  // work must strictly grow.
  EXPECT_GT(reduction_ops(4), reduction_ops(1));
}

TEST(HopNative, ValidatesConfiguration) {
  const PointSet particles = plummer_particles(100, 5);
  runtime::PhaseLedger ledger;
  HopConfig bad;
  bad.density_neighbors = 0;
  EXPECT_THROW(run_hop_native(particles, bad, 1, ledger),
               std::invalid_argument);
  bad = HopConfig{};
  bad.hop_neighbors = bad.density_neighbors + 1;
  EXPECT_THROW(run_hop_native(particles, bad, 1, ledger),
               std::invalid_argument);
}

TEST(HopDenser, TotalOrderIsAntisymmetric) {
  std::vector<double> density{1.0, 2.0, 2.0, 0.5};
  const std::span<const double> d(density);
  EXPECT_TRUE(hop_denser(d, 1, 0));
  EXPECT_FALSE(hop_denser(d, 0, 1));
  // Equal densities: lower index wins.
  EXPECT_TRUE(hop_denser(d, 1, 2));
  EXPECT_FALSE(hop_denser(d, 2, 1));
  EXPECT_FALSE(hop_denser(d, 1, 1));
}

}  // namespace
}  // namespace mergescale::workloads
