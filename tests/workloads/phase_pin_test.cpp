// Pins the observable work of every workload on small fixed inputs: each
// simulated phase bucket and memory statistic of kmeans and fuzzy (their
// traces use canonical addresses, so the cycles do not depend on the
// heap), and each native PhaseLedger operation count of all four
// workloads.  A change to how a phase sequence is executed — natively or
// on the simulator — must leave every value here untouched.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runtime/phase_ledger.hpp"
#include "sim/machine.hpp"
#include "workloads/apriori.hpp"
#include "workloads/dataset.hpp"
#include "workloads/fuzzy.hpp"
#include "workloads/hop.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {
namespace {

using runtime::Phase;
using runtime::ReductionStrategy;

constexpr ReductionStrategy kStrategies[] = {ReductionStrategy::kSerial,
                                             ReductionStrategy::kTree,
                                             ReductionStrategy::kPrivatized};

PointSet clustering_points() {
  return gaussian_mixture(core::DatasetShape{"pin", 300, 4, 3}, 21);
}

ClusteringConfig clustering_config(ReductionStrategy strategy) {
  ClusteringConfig config;
  config.clusters = 3;
  config.iterations = 2;
  config.strategy = strategy;
  return config;
}

void put(std::ostream& out, const sim::MemoryStats& m) {
  out << " [" << m.l1_hits << ' ' << m.l1_misses << ' ' << m.l2_hits << ' '
      << m.l2_misses << ' ' << m.invalidations << ' ' << m.upgrades << ' '
      << m.cache_to_cache << ' ' << m.writebacks << ' ' << m.bus_transactions
      << ' ' << m.bus_wait_cycles << ' ' << m.hop_cycles << ']';
}

std::string sim_line(const char* app, ReductionStrategy strategy, int cores,
                     const SimPhases& p) {
  std::ostringstream out;
  out << app << ' ' << runtime::reduction_strategy_name(strategy) << " c"
      << cores << ": " << p.init << ' ' << p.serial << ' ' << p.reduction
      << ' ' << p.parallel;
  put(out, p.serial_mem);
  put(out, p.reduction_mem);
  put(out, p.parallel_mem);
  return out.str();
}

std::string ledger_line(const char* app, const char* strategy, int threads,
                        const runtime::PhaseLedger& ledger) {
  std::ostringstream out;
  out << app << ' ' << strategy << " t" << threads << ':';
  for (Phase phase : {Phase::kInit, Phase::kSerial, Phase::kReduction,
                      Phase::kParallel}) {
    out << ' ' << ledger.ops(phase);
  }
  return out.str();
}

void expect_lines(const std::vector<std::string>& actual,
                  const std::vector<std::string>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
}

TEST(PhasePins, SimulatedClusteringPhases) {
  const PointSet points = clustering_points();
  std::vector<std::string> actual;
  for (ReductionStrategy strategy : kStrategies) {
    for (int cores : {1, 4}) {
      const ClusteringConfig config = clustering_config(strategy);
      sim::Machine km(sim::MachineConfig::icpp2011(cores));
      actual.push_back(sim_line("kmeans", strategy, cores,
                                simulate_kmeans(points, config, km)));
      sim::Machine fz(sim::MachineConfig::icpp2011(cores));
      actual.push_back(sim_line("fuzzy", strategy, cores,
                                simulate_fuzzy(points, config, fz)));
    }
  }
  // Per case: init serial reduction parallel cycles, then the serial,
  // reduction and parallel MemoryStats in declaration order.
  expect_lines(actual, {
      "kmeans serial c1: 0 192 570 61680"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [16026 174 0 174 0 0 0 0 174 0 0]",
      "fuzzy serial c1: 0 192 570 106233"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [34617 156 0 156 0 0 0 0 156 0 0]",
      "kmeans serial c4: 0 208 1488 15952"
      " [78 0 0 0 12 4 0 0 4 0 0]"
      " [339 21 0 3 0 0 18 18 21 0 0]"
      " [15994 206 12 183 18 9 11 11 215 56 0]",
      "fuzzy serial c4: 0 208 1488 27099"
      " [78 0 0 0 12 4 0 0 4 0 0]"
      " [339 21 0 3 0 0 18 18 21 0 0]"
      " [34591 182 12 168 9 9 2 2 191 52 0]",
      "kmeans tree c1: 0 192 570 61680"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [16026 174 0 174 0 0 0 0 174 0 0]",
      "fuzzy tree c1: 0 192 570 106233"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [34617 156 0 156 0 0 0 0 156 0 0]",
      "kmeans tree c4: 0 208 1198 15952"
      " [78 0 0 0 12 4 0 0 4 0 0]"
      " [339 21 0 3 0 0 18 18 21 16 0]"
      " [15994 206 12 183 18 9 11 11 215 56 0]",
      "fuzzy tree c4: 0 208 1198 27099"
      " [78 0 0 0 12 4 0 0 4 0 0]"
      " [339 21 0 3 0 0 18 18 21 16 0]"
      " [34591 182 12 168 9 9 2 2 191 52 0]",
      "kmeans privatized c1: 0 192 570 61680"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [16026 174 0 174 0 0 0 0 174 0 0]",
      "fuzzy privatized c1: 0 192 570 106233"
      " [78 0 0 0 0 0 0 0 0 0 0]"
      " [87 3 0 3 0 0 0 0 3 0 0]"
      " [34617 156 0 156 0 0 0 0 156 0 0]",
      "kmeans privatized c4: 0 272 1259 15956"
      " [74 4 0 0 12 4 4 4 8 0 0]"
      " [198 162 58 3 112 30 101 101 192 275 0]"
      " [15994 206 12 183 33 12 11 11 218 68 0]",
      "fuzzy privatized c4: 0 272 1259 27099"
      " [74 4 0 0 12 4 4 4 8 0 0]"
      " [198 162 58 3 112 30 101 101 192 275 0]"
      " [34591 182 12 168 24 12 2 2 194 55 0]",
  });
}

TEST(PhasePins, NativeLedgerOps) {
  const PointSet points = clustering_points();
  const PointSet particles = plummer_particles(400, 5);
  const TransactionSet transactions = synthetic_transactions(300, 16, 4, 9);
  std::vector<std::string> actual;
  for (int threads : {1, 3}) {
    for (ReductionStrategy strategy : kStrategies) {
      const char* name = runtime::reduction_strategy_name(strategy);
      const ClusteringConfig config = clustering_config(strategy);
      runtime::PhaseLedger km;
      run_kmeans_native(points, config, threads, km);
      actual.push_back(ledger_line("kmeans", name, threads, km));
      runtime::PhaseLedger fz;
      run_fuzzy_native(points, config, threads, fz);
      actual.push_back(ledger_line("fuzzy", name, threads, fz));
      AprioriConfig apriori;
      apriori.min_support = 0.1;
      apriori.max_level = 3;
      apriori.strategy = strategy;
      runtime::PhaseLedger ap;
      run_apriori_native(transactions, apriori, threads, ap);
      actual.push_back(ledger_line("apriori", name, threads, ap));
    }
    // HOP's merging phase is its own serial kernel: no strategy knob.
    runtime::PhaseLedger hop;
    run_hop_native(particles, HopConfig{}, threads, hop);
    actual.push_back(ledger_line("hop", "-", threads, hop));
  }
  // Per case: init serial reduction parallel operations.
  expect_lines(actual, {
      "kmeans serial t1: 12 144 30 42600",
      "fuzzy serial t1: 12 144 30 99456",
      "apriori serial t1: 1401 2258 168 264442",
      "kmeans tree t1: 12 144 30 42600",
      "fuzzy tree t1: 12 144 30 99456",
      "apriori tree t1: 1401 2258 168 264442",
      "kmeans privatized t1: 12 144 30 42600",
      "fuzzy privatized t1: 12 144 30 99456",
      "apriori privatized t1: 1401 2258 168 264442",
      "hop - t1: 0 2090 5000 655769",
      "kmeans serial t3: 12 144 90 42600",
      "fuzzy serial t3: 12 144 90 99456",
      "apriori serial t3: 1401 2258 504 264442",
      "kmeans tree t3: 12 144 90 42600",
      "fuzzy tree t3: 12 144 90 99456",
      "apriori tree t3: 1401 2258 504 264442",
      "kmeans privatized t3: 12 144 30 42600",
      "fuzzy privatized t3: 12 144 30 99456",
      "apriori privatized t3: 1401 2258 171 264442",
      "hop - t3: 0 2090 5360 655769",
  });
}

}  // namespace
}  // namespace mergescale::workloads
