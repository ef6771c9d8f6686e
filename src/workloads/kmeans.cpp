#include "workloads/kmeans.hpp"

#include <algorithm>

#include "runtime/thread_team.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/phases.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {

void init_centers(const PointSet& points, int clusters, std::uint64_t seed,
                  std::span<double> centers) {
  MS_CHECK(clusters >= 1, "need at least one cluster");
  MS_CHECK(points.size() >= static_cast<std::size_t>(clusters),
           "need at least as many points as clusters");
  MS_CHECK(centers.size() ==
               static_cast<std::size_t>(clusters) * points.dims(),
           "centers span has the wrong size");
  util::Xoshiro256 rng(seed);
  // Sample C distinct indices (small C: rejection sampling is fine).
  std::vector<std::size_t> chosen;
  chosen.reserve(static_cast<std::size_t>(clusters));
  while (chosen.size() < static_cast<std::size_t>(clusters)) {
    const std::size_t candidate =
        static_cast<std::size_t>(rng.bounded(points.size()));
    if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
      chosen.push_back(candidate);
    }
  }
  for (int c = 0; c < clusters; ++c) {
    auto src = points.row(chosen[static_cast<std::size_t>(c)]);
    std::copy(src.begin(), src.end(),
              centers.begin() + static_cast<std::size_t>(c) * points.dims());
  }
}

namespace {

/// The k-means phase sequence, written once for both backends
/// (phases.hpp).
template <typename P>
ClusteringResult kmeans_phases(P& phases, const PointSet& points,
                               const ClusteringConfig& config) {
  MS_CHECK(config.iterations >= 1, "need at least one iteration");
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

  runtime::PartialBuffers<double> center_parts(threads, width);
  runtime::PartialBuffers<std::uint64_t> count_parts(
      threads, static_cast<std::size_t>(clusters));
  std::vector<double> center_sums(width);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(clusters));

  // Every buffer the kernels touch, at canonical simulated addresses:
  // the cycle counts do not depend on where the heap put them.
  phases.place(points.flat());
  phases.place(std::span(result.centers));
  phases.place(std::span(result.assignments));
  phases.place(center_parts);
  phases.place(count_parts);
  phases.place(std::span(center_sums));
  phases.place(std::span(counts));

  for (int iter = 0; iter < config.iterations; ++iter) {
    // --- parallel phase: assignment + privatized accumulation ---
    center_parts.clear();
    count_parts.clear();
    phases.parallel([&](auto& ex, int tid, int team_size) {
      auto [lo, hi] =
          runtime::ThreadTeam::partition(0, points.size(), tid, team_size);
      kmeans_assign_block(ex, points, result.centers, clusters, lo, hi,
                          result.assignments, center_parts.partial(tid),
                          count_parts.partial(tid));
    });

    // --- merging phase: reduce partial sums into globals ---
    std::fill(center_sums.begin(), center_sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    phases.merge(config.strategy, center_parts,
                 std::span<double>(center_sums));
    phases.merge(config.strategy, count_parts,
                 std::span<std::uint64_t>(counts));

    // --- serial phase: center update ---
    phases.serial(runtime::Phase::kSerial, 6 * width, [&](auto& ex) {
      kmeans_update_centers(ex, std::span<double>(result.centers),
                            center_sums, counts, dims);
    });

    result.iterations = iter + 1;
  }

  // Final quality metric (not part of the timed phases).
  double inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto point = points.row(i);
    const double* center = result.centers.data() +
                           static_cast<std::size_t>(result.assignments[i]) *
                               dims;
    for (int d = 0; d < dims; ++d) {
      const double diff = point[d] - center[d];
      inertia += diff * diff;
    }
  }
  result.inertia = inertia;
  return result;
}

}  // namespace

ClusteringResult run_kmeans_native(const PointSet& points,
                                   const ClusteringConfig& config, int threads,
                                   runtime::PhaseLedger& ledger) {
  NativePhases phases(threads, ledger);
  return kmeans_phases(phases, points, config);
}

SimPhases simulate_kmeans(const PointSet& points,
                          const ClusteringConfig& config, sim::Machine& machine,
                          ClusteringResult* result_out) {
  SimulatedPhases phases(machine);
  ClusteringResult result = kmeans_phases(phases, points, config);
  if (result_out != nullptr) *result_out = std::move(result);
  return phases.phases();
}

}  // namespace mergescale::workloads
