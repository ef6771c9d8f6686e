#include "workloads/sim_adapter.hpp"

#include <algorithm>

#include "runtime/thread_team.hpp"
#include "sim/replay.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "workloads/fuzzy.hpp"
#include "workloads/hop.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/merge_kernels.hpp"

namespace mergescale::workloads {

namespace {

using runtime::PartialBuffers;
using runtime::ThreadTeam;
using sim::RecordingExecutor;
using sim::Trace;

/// Replays per-core traces and accumulates into a phase bucket.
void account(sim::Machine& machine, std::vector<Trace>& traces,
             std::uint64_t& bucket, sim::MemoryStats& mem) {
  const sim::ReplayResult r = sim::replay(machine, traces);
  bucket += r.cycles;
  mem += r.memory;
  traces.clear();
}

/// Replays a single core-0 trace and accumulates into a phase bucket.
void account_serial(sim::Machine& machine, Trace& trace,
                    std::uint64_t& bucket, sim::MemoryStats& mem) {
  const sim::ReplayResult r = sim::replay_serial(machine, trace);
  bucket += r.cycles;
  mem += r.memory;
  trace.clear();
}

/// Records and replays one merging phase under the configured strategy:
/// serial on core 0 (linear growth), tree as log2(t) barrier-separated
/// combine levels (logarithmic growth), or privatized with every core
/// reducing a slice across all partials (flat compute, all-to-all
/// communication).  Addresses are recorded through `map` (none when
/// null).
template <typename T>
void merge_with_strategy(runtime::ReductionStrategy strategy,
                         runtime::PartialBuffers<T>& partials,
                         std::span<T> dest, sim::Machine& machine,
                         std::uint64_t& bucket, sim::MemoryStats& mem,
                         const sim::AddressMap* map) {
  const int threads = partials.threads();
  switch (strategy) {
    case runtime::ReductionStrategy::kSerial: {
      Trace trace;
      RecordingExecutor ex(trace, map);
      merge_serial_kernel(ex, partials, dest);
      ex.flush_compute();
      account_serial(machine, trace, bucket, mem);
      return;
    }
    case runtime::ReductionStrategy::kTree: {
      // Each level is one replay phase: the barrier between levels is the
      // phase boundary, and only the combining cores execute work.
      for (int stride = 1; stride < threads; stride *= 2) {
        std::vector<Trace> traces(static_cast<std::size_t>(threads));
        for (int t = 0; t + stride < threads; t += 2 * stride) {
          RecordingExecutor ex(traces[static_cast<std::size_t>(t)], map);
          merge_tree_step_kernel(ex, partials, t, t + stride);
          ex.flush_compute();
        }
        account(machine, traces, bucket, mem);
      }
      Trace trace;
      RecordingExecutor ex(trace, map);
      merge_tree_final_kernel(ex, partials, dest);
      ex.flush_compute();
      account_serial(machine, trace, bucket, mem);
      return;
    }
    case runtime::ReductionStrategy::kPrivatized: {
      std::vector<Trace> traces(static_cast<std::size_t>(threads));
      for (int tid = 0; tid < threads; ++tid) {
        auto [lo, hi] = ThreadTeam::partition(0, dest.size(), tid, threads);
        RecordingExecutor ex(traces[static_cast<std::size_t>(tid)], map);
        merge_privatized_kernel(ex, partials, dest, lo, hi);
        ex.flush_compute();
      }
      account(machine, traces, bucket, mem);
      return;
    }
  }
  MS_CHECK(false, "unknown reduction strategy");
}

/// Registers every thread's row of `partials` with `map`.
template <typename T>
void add_partials(sim::AddressMap& map,
                  runtime::PartialBuffers<T>& partials) {
  for (int t = 0; t < partials.threads(); ++t) map.add(partials.partial(t));
}

}  // namespace

core::PhaseProfile SimPhases::profile(int cores) const {
  MS_CHECK(cores >= 1, "core count must be positive");
  core::PhaseProfile p;
  p.cores = cores;
  p.init = static_cast<double>(init);
  p.serial = static_cast<double>(serial);
  p.reduction = static_cast<double>(reduction);
  p.parallel = static_cast<double>(parallel);
  return p;
}

SimPhases simulate_kmeans(const PointSet& points,
                          const ClusteringConfig& config, sim::Machine& machine,
                          ClusteringResult* result_out) {
  const int threads = machine.cores();
  const int dims = points.dims();
  const int clusters = config.clusters;
  const std::size_t width =
      static_cast<std::size_t>(clusters) * static_cast<std::size_t>(dims);

  ClusteringResult result;
  result.centers.assign(width, 0.0);
  result.assignments.assign(points.size(), -1);
  init_centers(points, clusters, config.seed, result.centers);

  PartialBuffers<double> center_parts(threads, width);
  PartialBuffers<std::uint64_t> count_parts(threads,
                                            static_cast<std::size_t>(clusters));
  std::vector<double> center_sums(width);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(clusters));

  // Every buffer the kernels touch, at canonical addresses: the cycle
  // counts do not depend on where the heap put them.
  sim::AddressMap map;
  map.add(points.flat());
  map.add(std::span(result.centers));
  map.add(std::span(result.assignments));
  add_partials(map, center_parts);
  add_partials(map, count_parts);
  map.add(std::span(center_sums));
  map.add(std::span(counts));

  SimPhases phases;
  std::vector<Trace> traces(static_cast<std::size_t>(threads));
  Trace serial_trace;

  for (int iter = 0; iter < config.iterations; ++iter) {
    // Parallel phase: one trace per core.
    center_parts.clear();
    count_parts.clear();
    for (int tid = 0; tid < threads; ++tid) {
      auto [lo, hi] = ThreadTeam::partition(0, points.size(), tid, threads);
      RecordingExecutor ex(traces[static_cast<std::size_t>(tid)], &map);
      kmeans_assign_block(ex, points, result.centers, clusters, lo, hi,
                          result.assignments, center_parts.partial(tid),
                          count_parts.partial(tid));
      ex.flush_compute();
    }
    account(machine, traces, phases.parallel, phases.parallel_mem);
    traces.resize(static_cast<std::size_t>(threads));

    // Merging phase under the configured strategy (default: Algorithm 1
    // on core 0).
    std::fill(center_sums.begin(), center_sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    merge_with_strategy(config.strategy, center_parts,
                        std::span<double>(center_sums), machine,
                        phases.reduction, phases.reduction_mem, &map);
    merge_with_strategy(config.strategy, count_parts,
                        std::span<std::uint64_t>(counts), machine,
                        phases.reduction, phases.reduction_mem, &map);

    // Constant serial phase: center update on core 0.
    {
      RecordingExecutor ex(serial_trace, &map);
      kmeans_update_centers(ex, std::span<double>(result.centers),
                            center_sums, counts, dims);
      ex.flush_compute();
    }
    account_serial(machine, serial_trace, phases.serial, phases.serial_mem);
    result.iterations = iter + 1;
  }

  if (result_out != nullptr) *result_out = std::move(result);
  return phases;
}

SimPhases simulate_fuzzy(const PointSet& points, const ClusteringConfig& config,
                         sim::Machine& machine, ClusteringResult* result_out) {
  const int threads = machine.cores();
  const int dims = points.dims();
  const int clusters = config.clusters;
  const std::size_t width =
      static_cast<std::size_t>(clusters) * static_cast<std::size_t>(dims);

  ClusteringResult result;
  result.centers.assign(width, 0.0);
  result.assignments.assign(points.size(), -1);
  init_centers(points, clusters, config.seed, result.centers);

  PartialBuffers<double> num_parts(threads, width);
  PartialBuffers<double> den_parts(threads,
                                   static_cast<std::size_t>(clusters));
  std::vector<double> num(width);
  std::vector<double> den(static_cast<std::size_t>(clusters));
  std::vector<std::vector<double>> scratch(
      static_cast<std::size_t>(threads),
      std::vector<double>(static_cast<std::size_t>(clusters)));

  // Every buffer the kernels touch, at canonical addresses (see
  // simulate_kmeans).
  sim::AddressMap map;
  map.add(points.flat());
  map.add(std::span(result.centers));
  add_partials(map, num_parts);
  add_partials(map, den_parts);
  map.add(std::span(num));
  map.add(std::span(den));
  for (auto& row : scratch) map.add(std::span(row));

  SimPhases phases;
  std::vector<Trace> traces(static_cast<std::size_t>(threads));
  Trace serial_trace;

  for (int iter = 0; iter < config.iterations; ++iter) {
    num_parts.clear();
    den_parts.clear();
    for (int tid = 0; tid < threads; ++tid) {
      auto [lo, hi] = ThreadTeam::partition(0, points.size(), tid, threads);
      RecordingExecutor ex(traces[static_cast<std::size_t>(tid)], &map);
      fuzzy_accumulate_block(ex, points, result.centers, clusters,
                             config.fuzziness, lo, hi, num_parts.partial(tid),
                             den_parts.partial(tid),
                             scratch[static_cast<std::size_t>(tid)]);
      ex.flush_compute();
    }
    account(machine, traces, phases.parallel, phases.parallel_mem);
    traces.resize(static_cast<std::size_t>(threads));

    std::fill(num.begin(), num.end(), 0.0);
    std::fill(den.begin(), den.end(), 0.0);
    merge_with_strategy(config.strategy, num_parts, std::span<double>(num),
                        machine, phases.reduction, phases.reduction_mem,
                        &map);
    merge_with_strategy(config.strategy, den_parts, std::span<double>(den),
                        machine, phases.reduction, phases.reduction_mem,
                        &map);

    {
      RecordingExecutor ex(serial_trace, &map);
      fuzzy_update_centers(ex, std::span<double>(result.centers), num, den,
                           dims);
      ex.flush_compute();
    }
    account_serial(machine, serial_trace, phases.serial, phases.serial_mem);
    result.iterations = iter + 1;
  }

  // Hard assignments (outside the timed region, as in the native driver).
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

  if (result_out != nullptr) *result_out = std::move(result);
  return phases;
}

SimPhases simulate_hop(const PointSet& particles, const HopConfig& config,
                       sim::Machine& machine, HopResult* result_out) {
  const int threads = machine.cores();
  const std::size_t n = particles.size();

  HopResult result;
  result.density.assign(n, 0.0);
  result.group_of.assign(n, -1);

  KdTree tree(particles, config.leaf_size);
  std::vector<std::uint32_t> neighbors(
      n * static_cast<std::size_t>(config.hop_neighbors));
  std::vector<std::uint32_t> parent(n);
  std::vector<std::uint32_t> root(n);
  std::vector<std::int32_t> group_of(n, -1);

  SimPhases phases;
  std::vector<Trace> traces(static_cast<std::size_t>(threads));
  Trace serial_trace;

  // Tree construction: serial top on core 0, then parallel subtrees.
  std::vector<KdTree::SubtreeTask> tasks;
  {
    RecordingExecutor ex(serial_trace);
    tasks = tree.build_top(ex, threads);
    ex.flush_compute();
  }
  // The top phase occupies core 0 while the others idle: it counts toward
  // the parallel (tree construction) phase, which is what makes this
  // kernel non-scaling.
  account_serial(machine, serial_trace, phases.parallel, phases.parallel_mem);
  for (int tid = 0; tid < threads; ++tid) {
    RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
    for (std::size_t i = static_cast<std::size_t>(tid); i < tasks.size();
         i += static_cast<std::size_t>(threads)) {
      tree.build_subtree(ex, tasks[i]);
    }
    ex.flush_compute();
  }
  account(machine, traces, phases.parallel, phases.parallel_mem);
  traces.resize(static_cast<std::size_t>(threads));

  // Density estimation.
  for (int tid = 0; tid < threads; ++tid) {
    auto [lo, hi] = ThreadTeam::partition(0, n, tid, threads);
    RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
    std::vector<Neighbor> scratch;
    hop_density_block(ex, tree, config.density_neighbors, config.hop_neighbors,
                      lo, hi, std::span<double>(result.density),
                      std::span<std::uint32_t>(neighbors), scratch);
    ex.flush_compute();
  }
  account(machine, traces, phases.parallel, phases.parallel_mem);
  traces.resize(static_cast<std::size_t>(threads));

  // Hop + chase.
  for (int tid = 0; tid < threads; ++tid) {
    auto [lo, hi] = ThreadTeam::partition(0, n, tid, threads);
    RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
    hop_parent_block(ex, result.density, neighbors, config.hop_neighbors, lo,
                     hi, std::span<std::uint32_t>(parent));
    ex.flush_compute();
  }
  account(machine, traces, phases.parallel, phases.parallel_mem);
  traces.resize(static_cast<std::size_t>(threads));
  for (int tid = 0; tid < threads; ++tid) {
    auto [lo, hi] = ThreadTeam::partition(0, n, tid, threads);
    RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
    hop_chase_block(ex, parent, lo, hi, std::span<std::uint32_t>(root));
    ex.flush_compute();
  }
  account(machine, traces, phases.parallel, phases.parallel_mem);
  traces.resize(static_cast<std::size_t>(threads));

  // Group indexing (constant serial).
  std::vector<std::uint32_t> peak_of_group;
  int groups = 0;
  {
    RecordingExecutor ex(serial_trace);
    groups = hop_index_groups(ex, root, std::span<std::int32_t>(group_of),
                              peak_of_group);
    ex.flush_compute();
  }
  account_serial(machine, serial_trace, phases.serial, phases.serial_mem);

  // Histograms + boundary lists (parallel).
  PartialBuffers<std::uint64_t> partial_sizes(threads,
                                              static_cast<std::size_t>(groups));
  std::vector<std::vector<HopBoundary>> boundaries(
      static_cast<std::size_t>(threads));
  for (int tid = 0; tid < threads; ++tid) {
    auto [lo, hi] = ThreadTeam::partition(0, n, tid, threads);
    RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
    hop_boundary_block(ex, group_of, result.density, neighbors,
                       config.hop_neighbors, lo, hi, partial_sizes.partial(tid),
                       boundaries[static_cast<std::size_t>(tid)]);
    ex.flush_compute();
  }
  account(machine, traces, phases.parallel, phases.parallel_mem);

  // Merging phase on core 0.
  std::vector<std::uint64_t> group_sizes(static_cast<std::size_t>(groups), 0);
  util::UnionFind uf(static_cast<std::size_t>(groups));
  {
    RecordingExecutor ex(serial_trace);
    hop_merge_groups(ex, partial_sizes, std::span<std::uint64_t>(group_sizes),
                     boundaries, result.density, peak_of_group,
                     config.merge_saddle, uf);
    ex.flush_compute();
  }
  account_serial(machine, serial_trace, phases.reduction,
                 phases.reduction_mem);

  // Final relabeling (constant serial).
  {
    RecordingExecutor ex(serial_trace);
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
    ex.flush_compute();
  }
  account_serial(machine, serial_trace, phases.serial, phases.serial_mem);

  if (result_out != nullptr) *result_out = std::move(result);
  return phases;
}

SimPhases simulate_apriori(const TransactionSet& data,
                           const AprioriConfig& config, sim::Machine& machine,
                           AprioriResult* result_out) {
  const int threads = machine.cores();
  const std::size_t n = data.transactions();
  const auto min_count = static_cast<std::uint64_t>(
      config.min_support * static_cast<double>(n));

  AprioriResult result;
  SimPhases phases;
  std::vector<Trace> traces(static_cast<std::size_t>(threads));
  Trace serial_trace;

  std::int32_t max_item = 0;
  for (std::int32_t item : data.items) max_item = std::max(max_item, item);
  std::vector<std::int32_t> candidates;
  for (std::int32_t item = 0; item <= max_item; ++item) {
    candidates.push_back(item);
  }

  int k = 1;
  while (!candidates.empty() && k <= config.max_level) {
    const std::size_t width = candidates.size() / static_cast<std::size_t>(k);

    // Parallel counting phase.
    PartialBuffers<std::uint64_t> partials(threads, width);
    for (int tid = 0; tid < threads; ++tid) {
      auto [lo, hi] = ThreadTeam::partition(0, n, tid, threads);
      RecordingExecutor ex(traces[static_cast<std::size_t>(tid)]);
      apriori_count_block(ex, data, candidates, k, lo, hi,
                          partials.partial(tid));
      ex.flush_compute();
    }
    account(machine, traces, phases.parallel, phases.parallel_mem);
    traces.resize(static_cast<std::size_t>(threads));

    // Merging phase under the configured strategy.
    std::vector<std::uint64_t> counts(width, 0);
    merge_with_strategy(config.strategy, partials,
                        std::span<std::uint64_t>(counts), machine,
                        phases.reduction, phases.reduction_mem, nullptr);

    // Serial prune + candidate generation.
    {
      RecordingExecutor ex(serial_trace);
      std::vector<FrequentItemset> frequent = apriori_prune(
          ex, std::span<const std::int32_t>(candidates), k,
          std::span<const std::uint64_t>(counts), min_count);
      candidates = k < config.max_level
                       ? apriori_generate(ex, frequent, k)
                       : std::vector<std::int32_t>{};
      result.levels.push_back(std::move(frequent));
      ex.flush_compute();
    }
    account_serial(machine, serial_trace, phases.serial, phases.serial_mem);
    ++k;
  }

  if (result_out != nullptr) *result_out = std::move(result);
  return phases;
}

}  // namespace mergescale::workloads
