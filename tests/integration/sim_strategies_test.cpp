// Integration: the simulator-side reduction strategies.  The three
// merging-phase implementations must (a) produce identical clustering
// results, and (b) show the cycle-growth shapes the analytical model's
// growth functions postulate: serial grows ~linearly with cores, tree
// ~logarithmically, privatized stays ~flat in compute.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "workloads/apriori.hpp"
#include "workloads/dataset.hpp"
#include "workloads/hop.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {
namespace {

using runtime::ReductionStrategy;

PointSet dataset() {
  const core::DatasetShape shape{"strategies", 1024, 9, 8};
  return gaussian_mixture(shape, 55);
}

SimPhases run(const PointSet& points, ReductionStrategy strategy, int cores,
              ClusteringResult* result = nullptr) {
  ClusteringConfig config;
  config.iterations = 2;
  config.strategy = strategy;
  sim::Machine machine(sim::MachineConfig::icpp2011(cores));
  return simulate_kmeans(points, config, machine, result);
}

TEST(SimStrategies, AllStrategiesProduceIdenticalResults) {
  const PointSet points = dataset();
  ClusteringResult serial;
  run(points, ReductionStrategy::kSerial, 8, &serial);
  for (ReductionStrategy strategy :
       {ReductionStrategy::kTree, ReductionStrategy::kPrivatized}) {
    ClusteringResult other;
    run(points, strategy, 8, &other);
    EXPECT_EQ(other.assignments, serial.assignments);
    for (std::size_t i = 0; i < serial.centers.size(); ++i) {
      EXPECT_NEAR(other.centers[i], serial.centers[i], 1e-9) << i;
    }
  }
}

TEST(SimStrategies, SingleCoreAllStrategiesCostTheSame) {
  // With one core every strategy degenerates to the same serial walk.
  const PointSet points = dataset();
  const auto serial = run(points, ReductionStrategy::kSerial, 1);
  const auto tree = run(points, ReductionStrategy::kTree, 1);
  const auto priv = run(points, ReductionStrategy::kPrivatized, 1);
  EXPECT_EQ(tree.reduction, serial.reduction);
  EXPECT_EQ(priv.reduction, serial.reduction);
}

TEST(SimStrategies, CycleCountsDoNotDependOnWhereTheHeapPutsTheBuffers) {
  // Live ballast of odd sizes moves where each run's buffers land, and
  // every run copies its input somewhere else too; the simulated machine
  // must count the same cycles anyway.
  const PointSet points = dataset();
  const TransactionSet transactions = synthetic_transactions(600, 32, 6, 17);
  ClusteringConfig clustering;
  clustering.iterations = 2;
  clustering.strategy = ReductionStrategy::kTree;
  AprioriConfig mining;
  mining.strategy = ReductionStrategy::kTree;
  const auto simulate = [&](const std::string& app) {
    const PointSet moved = points;
    const TransactionSet moved_transactions = transactions;
    sim::Machine machine(sim::MachineConfig::icpp2011(4));
    if (app == "kmeans") return simulate_kmeans(moved, clustering, machine);
    if (app == "fuzzy") return simulate_fuzzy(moved, clustering, machine);
    if (app == "hop") return simulate_hop(moved, HopConfig{}, machine);
    return simulate_apriori(moved_transactions, mining, machine);
  };
  for (const std::string app : {"kmeans", "fuzzy", "hop", "apriori"}) {
    const SimPhases reference = simulate(app);
    std::vector<std::vector<char>> ballast;
    for (const std::size_t bytes : {24u, 40u, 200u, 1000u, 3000u, 70000u}) {
      ballast.emplace_back(bytes);
      const SimPhases again = simulate(app);
      EXPECT_EQ(again.parallel, reference.parallel) << app << " " << bytes;
      EXPECT_EQ(again.reduction, reference.reduction) << app << " " << bytes;
      EXPECT_EQ(again.serial, reference.serial) << app << " " << bytes;
    }
  }
}

TEST(SimStrategies, SerialGrowsFasterThanTree) {
  const PointSet points = dataset();
  const auto serial1 = run(points, ReductionStrategy::kSerial, 1);
  const auto serial16 = run(points, ReductionStrategy::kSerial, 16);
  const auto tree1 = run(points, ReductionStrategy::kTree, 1);
  const auto tree16 = run(points, ReductionStrategy::kTree, 16);
  const double serial_growth = static_cast<double>(serial16.reduction) /
                               static_cast<double>(serial1.reduction);
  const double tree_growth = static_cast<double>(tree16.reduction) /
                             static_cast<double>(tree1.reduction);
  EXPECT_GT(serial_growth, tree_growth);
  EXPECT_GT(serial_growth, 4.0);  // ~linear in 16 cores (with coherence)
}

TEST(SimStrategies, TreeBeatsSerialAtScale) {
  const PointSet points = dataset();
  const auto serial = run(points, ReductionStrategy::kSerial, 16);
  const auto tree = run(points, ReductionStrategy::kTree, 16);
  EXPECT_LT(tree.reduction, serial.reduction);
}

TEST(SimStrategies, PrivatizedFlattestGrowth) {
  const PointSet points = dataset();
  const auto p1 = run(points, ReductionStrategy::kPrivatized, 1);
  const auto p16 = run(points, ReductionStrategy::kPrivatized, 16);
  const auto s1 = run(points, ReductionStrategy::kSerial, 1);
  const auto s16 = run(points, ReductionStrategy::kSerial, 16);
  const double priv_growth = static_cast<double>(p16.reduction) /
                             static_cast<double>(p1.reduction);
  const double serial_growth = static_cast<double>(s16.reduction) /
                               static_cast<double>(s1.reduction);
  // The privatized compute does not grow; what remains is communication
  // (coherence traffic), which must still leave it well below serial.
  EXPECT_LT(priv_growth, serial_growth);
}

TEST(SimStrategies, PrivatizedSeesAllToAllTraffic) {
  // Privatized reduction reads every core's partials from every core —
  // the all-to-all pattern the paper's communication model charges for.
  const PointSet points = dataset();
  const auto priv = run(points, ReductionStrategy::kPrivatized, 8);
  EXPECT_GT(priv.reduction_mem.cache_to_cache +
                priv.reduction_mem.invalidations,
            0u);
}

}  // namespace
}  // namespace mergescale::workloads
