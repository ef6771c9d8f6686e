#include "workloads/hop.hpp"

#include <algorithm>

#include "runtime/thread_team.hpp"
#include "util/check.hpp"
#include "workloads/phases.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {

namespace {

/// The HOP phase sequence, written once for both backends (phases.hpp).
template <typename P>
HopResult hop_phases(P& phases, const PointSet& particles,
                     const HopConfig& config) {
  MS_CHECK(config.density_neighbors >= 1, "need at least one neighbor");
  MS_CHECK(config.hop_neighbors >= 1 &&
               config.hop_neighbors <= config.density_neighbors,
           "hop neighbors must lie in [1, density_neighbors]");
  const std::size_t n = particles.size();
  const int threads = phases.threads();

  HopResult result;
  result.density.assign(n, 0.0);
  result.group_of.assign(n, -1);

  KdTree tree =
      phases.init(0, [&] { return KdTree(particles, config.leaf_size); });
  std::vector<std::uint32_t> neighbors(
      n * static_cast<std::size_t>(config.hop_neighbors));
  std::vector<std::uint32_t> parent(n);
  std::vector<std::uint32_t> root(n);
  std::vector<std::int32_t> group_of(n, -1);

  // Every buffer the kernels trace, at canonical simulated addresses once
  // it has its final size (see kmeans.cpp).
  phases.place(particles.flat());
  phases.place(std::span(tree.order()));
  phases.place(std::span(result.density));
  phases.place(std::span(result.group_of));
  phases.place(std::span(neighbors));
  phases.place(std::span(parent));
  phases.place(std::span(root));
  phases.place(std::span(group_of));

  // --- parallel phase: tree construction.  The serial top occupies core
  // 0 while the others idle: it counts toward the parallel (tree
  // construction) phase, which is what makes this kernel non-scaling.
  std::vector<KdTree::SubtreeTask> tasks;
  phases.serial(runtime::Phase::kParallel, [&](auto& ex) {
    tree.allocate_nodes(threads);
    phases.place(tree.nodes());
    tasks = tree.build_top(ex, threads);
  });
  phases.parallel([&](auto& ex, int tid, int team_size) {
    for (std::size_t i = static_cast<std::size_t>(tid); i < tasks.size();
         i += static_cast<std::size_t>(team_size)) {
      tree.build_subtree(ex, tasks[i]);
    }
  });

  // --- parallel phase: density estimation ---
  phases.parallel([&](auto& ex, int tid, int team_size) {
    auto [lo, hi] = runtime::ThreadTeam::partition(0, n, tid, team_size);
    std::vector<Neighbor> scratch;
    hop_density_block(ex, tree, config.density_neighbors, config.hop_neighbors,
                      lo, hi, std::span<double>(result.density),
                      std::span<std::uint32_t>(neighbors), scratch);
  });

  // --- parallel phases: hop to the densest neighbor, then chase chains
  // (all parents final before any chase) ---
  phases.parallel([&](auto& ex, int tid, int team_size) {
    auto [lo, hi] = runtime::ThreadTeam::partition(0, n, tid, team_size);
    hop_parent_block(ex, result.density, neighbors, config.hop_neighbors, lo,
                     hi, std::span<std::uint32_t>(parent));
  });
  phases.parallel([&](auto& ex, int tid, int team_size) {
    auto [lo, hi] = runtime::ThreadTeam::partition(0, n, tid, team_size);
    hop_chase_block(ex, parent, lo, hi, std::span<std::uint32_t>(root));
  });

  // --- constant serial phase: group indexing ---
  std::vector<std::uint32_t> peak_of_group;
  int groups = 0;
  phases.serial(runtime::Phase::kSerial, [&](auto& ex) {
    groups = hop_index_groups(ex, root, std::span<std::int32_t>(group_of),
                              peak_of_group);
  });
  phases.place(std::span(peak_of_group));

  // --- parallel phase: privatized group histograms + boundary lists ---
  runtime::PartialBuffers<std::uint64_t> partial_sizes(
      threads, static_cast<std::size_t>(groups));
  std::vector<std::vector<HopBoundary>> boundaries(
      static_cast<std::size_t>(threads));
  phases.place(partial_sizes);
  phases.parallel([&](auto& ex, int tid, int team_size) {
    auto [lo, hi] = runtime::ThreadTeam::partition(0, n, tid, team_size);
    hop_boundary_block(ex, group_of, result.density, neighbors,
                       config.hop_neighbors, lo, hi, partial_sizes.partial(tid),
                       boundaries[static_cast<std::size_t>(tid)]);
  });

  // --- merging phase on core 0: reduce histograms + join groups across
  // saddles ---
  std::vector<std::uint64_t> group_sizes(static_cast<std::size_t>(groups), 0);
  for (const auto& list : boundaries) phases.place(std::span(list));
  phases.place(std::span(group_sizes));
  util::UnionFind uf(static_cast<std::size_t>(groups));
  phases.serial(runtime::Phase::kReduction, [&](auto& ex) {
    hop_merge_groups(ex, partial_sizes, std::span<std::uint64_t>(group_sizes),
                     boundaries, result.density, peak_of_group,
                     config.merge_saddle, uf);
  });

  // --- constant serial phase: final relabeling ---
  phases.serial(runtime::Phase::kSerial, 3 * n, [&](auto& ex) {
    std::vector<std::int32_t> dense_id(static_cast<std::size_t>(groups), -1);
    int final_groups = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ex.load(&group_of[i]);
      const std::uint32_t rep =
          uf.find(static_cast<std::uint32_t>(group_of[i]));
      if (dense_id[rep] < 0) dense_id[rep] = final_groups++;
      result.group_of[i] = dense_id[rep];
      ex.store(&result.group_of[i]);
      ex.compute(2);
    }
    result.groups = final_groups;
  });
  return result;
}

}  // namespace

HopResult run_hop_native(const PointSet& particles, const HopConfig& config,
                         int threads, runtime::PhaseLedger& ledger) {
  NativePhases phases(threads, ledger);
  return hop_phases(phases, particles, config);
}

SimPhases simulate_hop(const PointSet& particles, const HopConfig& config,
                       sim::Machine& machine, HopResult* result_out) {
  SimulatedPhases phases(machine);
  HopResult result = hop_phases(phases, particles, config);
  if (result_out != nullptr) *result_out = std::move(result);
  return phases.phases();
}

}  // namespace mergescale::workloads
