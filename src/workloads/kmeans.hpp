#pragma once
// Parallel k-means clustering (MineBench-style), the paper's running
// example of a merging phase (Algorithm 1).
//
// Structure per iteration:
//   parallel phase   each thread assigns its block of points to the
//                    nearest center and accumulates privatized partial
//                    center sums / counts;
//   merging phase    partial sums are reduced into global sums — the
//                    reduction whose cost grows with the thread count;
//   serial phase     new centers are computed from the global sums
//                    (constant work, independent of thread count).
//
// All kernels are Executor templates (runtime/executor.hpp), and the phase
// sequence is written once over a phase backend (phases.hpp), so the same
// code runs natively and on the timing simulator (simulate_kmeans).

#include <cstdint>
#include <span>

#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "workloads/dataset.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// Deterministic center initialization: C distinct points sampled from
/// the set (seeded); writes into `centers` (C×D).
void init_centers(const PointSet& points, int clusters, std::uint64_t seed,
                  std::span<double> centers);

/// Assignment + privatized accumulation for points [lo, hi).
/// `partial_centers` is C×D, `partial_counts` is C — both this thread's
/// private buffers, which the caller has zeroed.
template <Executor E>
void kmeans_assign_block(E& ex, const PointSet& points,
                         std::span<const double> centers, int clusters,
                         std::size_t lo, std::size_t hi,
                         std::span<int> assignments,
                         std::span<double> partial_centers,
                         std::span<std::uint64_t> partial_counts) {
  const int dims = points.dims();
  for (std::size_t i = lo; i < hi; ++i) {
    auto point = points.row(i);
    for (int d = 0; d < dims; ++d) ex.load(&point[d]);

    int best = 0;
    double best_dist = 0.0;
    for (int c = 0; c < clusters; ++c) {
      const double* center = centers.data() + static_cast<std::size_t>(c) * dims;
      double dist = 0.0;
      for (int d = 0; d < dims; ++d) {
        ex.load(&center[d]);
        const double diff = point[d] - center[d];
        dist += diff * diff;
      }
      ex.compute(static_cast<std::uint64_t>(3 * dims));  // sub, mul, add
      if (c == 0 || dist < best_dist) {
        best_dist = dist;
        best = c;
      }
      ex.compute(1);  // compare
    }

    assignments[i] = best;
    ex.store(&assignments[i]);

    double* sums = partial_centers.data() + static_cast<std::size_t>(best) * dims;
    for (int d = 0; d < dims; ++d) {
      ex.load(&sums[d]);
      sums[d] += point[d];
      ex.store(&sums[d]);
    }
    ex.compute(static_cast<std::uint64_t>(dims));
    ex.load(&partial_counts[best]);
    ++partial_counts[best];
    ex.store(&partial_counts[best]);
    ex.compute(1);
  }
}

/// Serial (constant) phase: derives new centers from global sums/counts;
/// returns the largest squared center displacement (convergence measure).
template <Executor E>
double kmeans_update_centers(E& ex, std::span<double> centers,
                             std::span<const double> center_sums,
                             std::span<const std::uint64_t> counts, int dims) {
  double max_shift = 0.0;
  const std::size_t clusters = counts.size();
  for (std::size_t c = 0; c < clusters; ++c) {
    ex.load(&counts[c]);
    if (counts[c] == 0) continue;  // empty cluster keeps its center
    const double inv = 1.0 / static_cast<double>(counts[c]);
    ex.compute(1);
    double shift = 0.0;
    for (int d = 0; d < dims; ++d) {
      const std::size_t k = c * static_cast<std::size_t>(dims) +
                            static_cast<std::size_t>(d);
      ex.load(&center_sums[k]);
      ex.load(&centers[k]);
      const double updated = center_sums[k] * inv;
      const double diff = updated - centers[k];
      shift += diff * diff;
      centers[k] = updated;
      ex.store(&centers[k]);
      ex.compute(4);
    }
    max_shift = std::max(max_shift, shift);
    ex.compute(1);
  }
  return max_shift;
}

/// Runs k-means natively on a `threads`-wide team, accumulating per-phase
/// wall-clock seconds *and* machine-independent operation counts into
/// `ledger` (see PhaseLedger).  The merging phase uses
/// `config.strategy`.
ClusteringResult run_kmeans_native(const PointSet& points,
                                   const ClusteringConfig& config, int threads,
                                   runtime::PhaseLedger& ledger);

}  // namespace mergescale::workloads
