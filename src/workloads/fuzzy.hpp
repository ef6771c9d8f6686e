#pragma once
// Parallel fuzzy c-means clustering (MineBench-style).  Same phase
// structure as k-means — parallel membership/accumulation, merging phase
// over C·D (+C) reduction elements, constant serial center update — but
// with a heavier parallel phase (memberships against every center), which
// is why the paper measures a larger parallel fraction for it.

#include <cmath>
#include <cstdint>
#include <span>

#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "workloads/dataset.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// Membership computation + weighted privatized accumulation for points
/// [lo, hi).  `partial_num` is C×D weighted coordinate sums; `partial_den`
/// is C membership-weight sums.  `m` is the fuzziness exponent (> 1).
template <Executor E>
void fuzzy_accumulate_block(E& ex, const PointSet& points,
                            std::span<const double> centers, int clusters,
                            double m, std::size_t lo, std::size_t hi,
                            std::span<double> partial_num,
                            std::span<double> partial_den,
                            std::span<double> scratch_dist) {
  const int dims = points.dims();
  const double exponent = 1.0 / (m - 1.0);
  for (std::size_t i = lo; i < hi; ++i) {
    auto point = points.row(i);
    for (int d = 0; d < dims; ++d) ex.load(&point[d]);

    // Squared distances to every center.
    int zero_dist_center = -1;
    for (int c = 0; c < clusters; ++c) {
      const double* center =
          centers.data() + static_cast<std::size_t>(c) * dims;
      double dist = 0.0;
      for (int d = 0; d < dims; ++d) {
        ex.load(&center[d]);
        const double diff = point[d] - center[d];
        dist += diff * diff;
      }
      ex.compute(static_cast<std::uint64_t>(3 * dims));
      scratch_dist[static_cast<std::size_t>(c)] = dist;
      ex.store(&scratch_dist[static_cast<std::size_t>(c)]);
      if (dist == 0.0 && zero_dist_center < 0) zero_dist_center = c;
    }

    // Memberships and weighted accumulation.
    for (int c = 0; c < clusters; ++c) {
      double u;
      if (zero_dist_center >= 0) {
        u = c == zero_dist_center ? 1.0 : 0.0;
      } else {
        // u_c = 1 / sum_j (d_c / d_j)^(1/(m-1))
        double denom = 0.0;
        const double dist_c = scratch_dist[static_cast<std::size_t>(c)];
        for (int j = 0; j < clusters; ++j) {
          ex.load(&scratch_dist[static_cast<std::size_t>(j)]);
          denom += std::pow(dist_c / scratch_dist[static_cast<std::size_t>(j)],
                            exponent);
        }
        ex.compute(static_cast<std::uint64_t>(4 * clusters));
        u = 1.0 / denom;
        ex.compute(1);
      }
      const double weight = std::pow(u, m);
      ex.compute(2);

      double* num = partial_num.data() + static_cast<std::size_t>(c) * dims;
      for (int d = 0; d < dims; ++d) {
        ex.load(&num[d]);
        num[d] += weight * point[d];
        ex.store(&num[d]);
      }
      ex.compute(static_cast<std::uint64_t>(2 * dims));
      ex.load(&partial_den[static_cast<std::size_t>(c)]);
      partial_den[static_cast<std::size_t>(c)] += weight;
      ex.store(&partial_den[static_cast<std::size_t>(c)]);
      ex.compute(1);
    }
  }
}

/// Serial phase: new centers from weighted sums; returns max squared
/// center displacement.
template <Executor E>
double fuzzy_update_centers(E& ex, std::span<double> centers,
                            std::span<const double> num,
                            std::span<const double> den, int dims) {
  double max_shift = 0.0;
  const std::size_t clusters = den.size();
  for (std::size_t c = 0; c < clusters; ++c) {
    ex.load(&den[c]);
    if (den[c] <= 0.0) continue;
    const double inv = 1.0 / den[c];
    ex.compute(1);
    double shift = 0.0;
    for (int d = 0; d < dims; ++d) {
      const std::size_t k = c * static_cast<std::size_t>(dims) +
                            static_cast<std::size_t>(d);
      ex.load(&num[k]);
      ex.load(&centers[k]);
      const double updated = num[k] * inv;
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

/// Runs fuzzy c-means natively; see run_kmeans_native for the ledger
/// contract.  Hard assignments in the result are argmax memberships
/// (equivalently: nearest center).
ClusteringResult run_fuzzy_native(const PointSet& points,
                                  const ClusteringConfig& config, int threads,
                                  runtime::PhaseLedger& ledger);

}  // namespace mergescale::workloads
