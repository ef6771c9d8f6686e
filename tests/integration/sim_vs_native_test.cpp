// Integration: the simulator adapter must produce bit-identical workload
// results to the native driver (the Executor abstraction only observes,
// never perturbs), and its timing must show the paper's qualitative
// behaviour: scaling parallel phases, growing merging phases.

#include <gtest/gtest.h>

#include "sim/machine.hpp"
#include "workloads/apriori.hpp"
#include "workloads/dataset.hpp"
#include "workloads/fuzzy.hpp"
#include "workloads/hop.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {
namespace {

sim::Machine make_machine(int cores) {
  return sim::Machine(sim::MachineConfig::icpp2011(cores));
}

TEST(SimVsNative, KmeansResultsIdentical) {
  const core::DatasetShape shape{"t", 600, 5, 4};
  const PointSet points = gaussian_mixture(shape, 77);
  ClusteringConfig config;
  config.clusters = 4;
  config.iterations = 3;

  runtime::PhaseLedger ledger;
  const ClusteringResult native = run_kmeans_native(points, config, 4, ledger);

  sim::Machine machine = make_machine(4);
  ClusteringResult simulated;
  simulate_kmeans(points, config, machine, &simulated);

  EXPECT_EQ(simulated.assignments, native.assignments);
  ASSERT_EQ(simulated.centers.size(), native.centers.size());
  for (std::size_t i = 0; i < native.centers.size(); ++i) {
    EXPECT_NEAR(simulated.centers[i], native.centers[i], 1e-9) << i;
  }
}

TEST(SimVsNative, FuzzyResultsIdentical) {
  const core::DatasetShape shape{"t", 400, 4, 3};
  const PointSet points = gaussian_mixture(shape, 99);
  ClusteringConfig config;
  config.clusters = 3;
  config.iterations = 3;

  runtime::PhaseLedger ledger;
  const ClusteringResult native = run_fuzzy_native(points, config, 2, ledger);
  sim::Machine machine = make_machine(2);
  ClusteringResult simulated;
  simulate_fuzzy(points, config, machine, &simulated);
  EXPECT_EQ(simulated.assignments, native.assignments);
}

TEST(SimVsNative, HopResultsIdentical) {
  const PointSet particles = plummer_particles(900, 13);
  HopConfig config;
  runtime::PhaseLedger ledger;
  const HopResult native = run_hop_native(particles, config, 4, ledger);
  sim::Machine machine = make_machine(4);
  HopResult simulated;
  simulate_hop(particles, config, machine, &simulated);
  EXPECT_EQ(simulated.groups, native.groups);
  EXPECT_EQ(simulated.group_of, native.group_of);
}

TEST(SimVsNative, AprioriResultsIdentical) {
  const TransactionSet data = synthetic_transactions(500, 24, 5, 31);
  for (runtime::ReductionStrategy strategy :
       {runtime::ReductionStrategy::kSerial, runtime::ReductionStrategy::kTree,
        runtime::ReductionStrategy::kPrivatized}) {
    AprioriConfig config;
    config.min_support = 0.05;
    config.strategy = strategy;
    runtime::PhaseLedger ledger;
    const AprioriResult native = run_apriori_native(data, config, 3, ledger);
    sim::Machine machine = make_machine(3);
    AprioriResult simulated;
    simulate_apriori(data, config, machine, &simulated);
    ASSERT_EQ(simulated.levels.size(), native.levels.size());
    ASSERT_GE(native.levels.size(), 2u) << "the data must reach level 2";
    for (std::size_t k = 0; k < native.levels.size(); ++k) {
      ASSERT_EQ(simulated.levels[k].size(), native.levels[k].size()) << k;
      for (std::size_t i = 0; i < native.levels[k].size(); ++i) {
        EXPECT_EQ(simulated.levels[k][i].items, native.levels[k][i].items);
        EXPECT_EQ(simulated.levels[k][i].support,
                  native.levels[k][i].support);
      }
    }
  }
}

TEST(SimTiming, KmeansParallelPhaseScales) {
  const core::DatasetShape shape{"t", 2048, 9, 8};
  const PointSet points = gaussian_mixture(shape, 7);
  ClusteringConfig config;
  config.iterations = 2;

  sim::Machine m1 = make_machine(1);
  const SimPhases p1 = simulate_kmeans(points, config, m1);
  sim::Machine m8 = make_machine(8);
  const SimPhases p8 = simulate_kmeans(points, config, m8);

  const double scaling = static_cast<double>(p1.parallel) /
                         static_cast<double>(p8.parallel);
  EXPECT_GT(scaling, 5.0) << "parallel phase should scale well to 8 cores";
  EXPECT_LE(scaling, 8.5);
}

TEST(SimTiming, KmeansReductionPhaseGrows) {
  const core::DatasetShape shape{"t", 2048, 9, 8};
  const PointSet points = gaussian_mixture(shape, 7);
  ClusteringConfig config;
  config.iterations = 2;

  std::uint64_t previous = 0;
  for (int cores : {1, 2, 4, 8}) {
    sim::Machine machine = make_machine(cores);
    const SimPhases phases = simulate_kmeans(points, config, machine);
    EXPECT_GT(phases.reduction, previous) << cores;
    previous = phases.reduction;
  }
}

TEST(SimTiming, SerialSectionGrowthMatchesPaperShape) {
  // Fig. 2(b): serial-section time (serial + reduction) normalized to one
  // core grows monotonically with the core count.
  const core::DatasetShape shape{"t", 2048, 9, 8};
  const PointSet points = gaussian_mixture(shape, 3);
  ClusteringConfig config;
  config.iterations = 2;

  sim::Machine m1 = make_machine(1);
  const double base =
      static_cast<double>(simulate_kmeans(points, config, m1).serial_section());
  double previous = 1.0;
  for (int cores : {2, 4, 8, 16}) {
    sim::Machine machine = make_machine(cores);
    const SimPhases phases = simulate_kmeans(points, config, machine);
    const double factor = static_cast<double>(phases.serial_section()) / base;
    EXPECT_GT(factor, previous) << cores;
    previous = factor;
  }
  EXPECT_GT(previous, 2.0) << "16-core serial section should be >2x";
}

TEST(SimTiming, ReductionPhaseSeesCoherenceTraffic) {
  // The merging phase reads partials written by other cores: it must
  // observe cache-to-cache transfers, unlike the single-core run.
  const core::DatasetShape shape{"t", 1024, 9, 8};
  const PointSet points = gaussian_mixture(shape, 11);
  ClusteringConfig config;
  config.iterations = 1;

  sim::Machine m8 = make_machine(8);
  const SimPhases p8 = simulate_kmeans(points, config, m8);
  EXPECT_GT(p8.reduction_mem.cache_to_cache, 0u);

  sim::Machine m1 = make_machine(1);
  const SimPhases p1 = simulate_kmeans(points, config, m1);
  EXPECT_EQ(p1.reduction_mem.cache_to_cache, 0u);
}

TEST(SimTiming, HopTreeKernelLimitsScaling) {
  // HOP's tree construction has a serial top: overall speedup at 8 cores
  // stays clearly below kmeans-style near-linear scaling.
  const PointSet particles = plummer_particles(3000, 17);
  HopConfig config;

  sim::Machine m1 = make_machine(1);
  const SimPhases p1 = simulate_hop(particles, config, m1);
  sim::Machine m8 = make_machine(8);
  const SimPhases p8 = simulate_hop(particles, config, m8);

  const double speedup =
      static_cast<double>(p1.total()) / static_cast<double>(p8.total());
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 7.9) << "hop must scale sub-linearly (tree kernel)";
}

TEST(SimPhases, ProfileConversion) {
  SimPhases phases;
  phases.init = 10;
  phases.serial = 20;
  phases.reduction = 30;
  phases.parallel = 40;
  const core::PhaseProfile profile = phases.profile(4);
  EXPECT_EQ(profile.cores, 4);
  EXPECT_DOUBLE_EQ(profile.serial, 20.0);
  EXPECT_DOUBLE_EQ(profile.reduction, 30.0);
  EXPECT_DOUBLE_EQ(profile.parallel, 40.0);
  EXPECT_EQ(phases.total(), 90u);
  EXPECT_EQ(phases.serial_section(), 50u);
}

}  // namespace
}  // namespace mergescale::workloads
