#pragma once
// Shared configuration/result types for the clustering workloads.

#include <cstdint>
#include <vector>

#include "runtime/reduction.hpp"

namespace mergescale::workloads {

// Every workload kernel is a template over a runtime::Executor.
using runtime::CountingExecutor;
using runtime::Executor;
using runtime::NativeExecutor;

/// Common knobs of the kmeans / fuzzy c-means drivers.
struct ClusteringConfig {
  int clusters = 8;       ///< C
  int iterations = 5;     ///< fixed iteration count (paper-style timing runs)
  double fuzziness = 2.0; ///< fuzzy c-means exponent m (fuzzy only)
  runtime::ReductionStrategy strategy =
      runtime::ReductionStrategy::kSerial;  ///< merging-phase implementation
  std::uint64_t seed = 0x2011'1CBBULL;      ///< center initialization seed
};

/// Output of a clustering run.
struct ClusteringResult {
  std::vector<double> centers;  ///< C×D, row-major
  std::vector<int> assignments; ///< hard assignment per point
  int iterations = 0;           ///< iterations executed
  double inertia = 0.0;         ///< sum of squared point-center distances
};

/// Configuration of the HOP density-clustering driver.
struct HopConfig {
  int density_neighbors = 16;  ///< Ndens: kNN count for density estimation
  int hop_neighbors = 4;       ///< Nhop: neighbors considered when hopping
  int leaf_size = 8;           ///< kd-tree leaf capacity
  double merge_saddle = 0.6;   ///< boundary merge threshold (fraction of
                               ///< the smaller peak density)
  std::uint64_t seed = 0x2011'1CBBULL;
};

/// Output of a HOP run.
struct HopResult {
  std::vector<int> group_of;      ///< final group id per particle (-1: none)
  std::vector<double> density;    ///< estimated density per particle
  int groups = 0;                 ///< number of groups after merging
};

}  // namespace mergescale::workloads
