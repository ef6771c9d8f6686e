#include "workloads/fuzzy.hpp"

#include <algorithm>

#include "runtime/thread_team.hpp"
#include "util/check.hpp"
#include "workloads/kmeans.hpp"  // init_centers
#include "workloads/phases.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {

namespace {

/// The fuzzy c-means phase sequence, written once for both backends
/// (phases.hpp).
template <typename P>
ClusteringResult fuzzy_phases(P& phases, const PointSet& points,
                              const ClusteringConfig& config) {
  MS_CHECK(config.iterations >= 1, "need at least one iteration");
  MS_CHECK(config.fuzziness > 1.0, "fuzziness exponent must exceed 1");
  const int dims = points.dims();
  const int clusters = config.clusters;
  const int threads = phases.threads();
  const std::size_t width =
      static_cast<std::size_t>(clusters) * static_cast<std::size_t>(dims);

  ClusteringResult result;
  result.centers.assign(width, 0.0);
  result.assignments.assign(points.size(), -1);
  phases.init(width, [&] {
    init_centers(points, clusters, config.seed, result.centers);
  });

  runtime::PartialBuffers<double> num_parts(threads, width);
  runtime::PartialBuffers<double> den_parts(threads,
                                            static_cast<std::size_t>(clusters));
  std::vector<double> num(width);
  std::vector<double> den(static_cast<std::size_t>(clusters));
  std::vector<std::vector<double>> scratch(
      static_cast<std::size_t>(threads),
      std::vector<double>(static_cast<std::size_t>(clusters)));

  // Every buffer the kernels touch, at canonical simulated addresses (see
  // kmeans.cpp).
  phases.place(points.flat());
  phases.place(std::span(result.centers));
  phases.place(num_parts);
  phases.place(den_parts);
  phases.place(std::span(num));
  phases.place(std::span(den));
  for (auto& row : scratch) phases.place(std::span(row));

  for (int iter = 0; iter < config.iterations; ++iter) {
    num_parts.clear();
    den_parts.clear();
    phases.parallel([&](auto& ex, int tid, int team_size) {
      auto [lo, hi] =
          runtime::ThreadTeam::partition(0, points.size(), tid, team_size);
      fuzzy_accumulate_block(ex, points, result.centers, clusters,
                             config.fuzziness, lo, hi, num_parts.partial(tid),
                             den_parts.partial(tid),
                             scratch[static_cast<std::size_t>(tid)]);
    });

    std::fill(num.begin(), num.end(), 0.0);
    std::fill(den.begin(), den.end(), 0.0);
    phases.merge(config.strategy, num_parts, std::span<double>(num));
    phases.merge(config.strategy, den_parts, std::span<double>(den));

    phases.serial(runtime::Phase::kSerial, 6 * width, [&](auto& ex) {
      fuzzy_update_centers(ex, std::span<double>(result.centers), num, den,
                           dims);
    });
    result.iterations = iter + 1;
  }

  // Hard assignments + inertia for result reporting (not part of the
  // timed phases).
  double inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto point = points.row(i);
    int best = 0;
    double best_dist = 0.0;
    for (int c = 0; c < clusters; ++c) {
      const double* center =
          result.centers.data() + static_cast<std::size_t>(c) * dims;
      double dist = 0.0;
      for (int d = 0; d < dims; ++d) {
        const double diff = point[d] - center[d];
        dist += diff * diff;
      }
      if (c == 0 || dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    result.assignments[i] = best;
    inertia += best_dist;
  }
  result.inertia = inertia;
  return result;
}

}  // namespace

ClusteringResult run_fuzzy_native(const PointSet& points,
                                  const ClusteringConfig& config, int threads,
                                  runtime::PhaseLedger& ledger) {
  NativePhases phases(threads, ledger);
  return fuzzy_phases(phases, points, config);
}

SimPhases simulate_fuzzy(const PointSet& points, const ClusteringConfig& config,
                         sim::Machine& machine, ClusteringResult* result_out) {
  SimulatedPhases phases(machine);
  ClusteringResult result = fuzzy_phases(phases, points, config);
  if (result_out != nullptr) *result_out = std::move(result);
  return phases.phases();
}

}  // namespace mergescale::workloads
