#pragma once
// HOP density-based clustering (Eisenstein & Hut), MineBench's third
// clustering workload.  Pipeline:
//
//   tree      kd-tree construction — serial top levels + parallel
//             subtrees (the kernel the paper observes not to scale);
//   density   kNN density estimation per particle (parallel, scalable);
//   hop       each particle points at its densest neighbor; chains are
//             chased to local density maxima (parallel);
//   group     maxima are indexed into groups (constant serial work);
//   merge     per-thread partial group statistics and boundary lists are
//             reduced on the master and groups joined across saddle
//             points — the merging phase whose cost grows with threads.
//
// All kernels are Executor templates, and the phase sequence is written
// once over a phase backend (phases.hpp): natively it is timed with a
// PhaseLedger, on the simulator its recorded traces are replayed.

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "util/union_find.hpp"
#include "workloads/dataset.hpp"
#include "workloads/kdtree.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// A group boundary observed between two particles of different groups;
/// `saddle` is the smaller of the two densities.
struct HopBoundary {
  std::uint32_t group_a = 0;
  std::uint32_t group_b = 0;
  double saddle = 0.0;
};

/// Density estimation for particles [lo, hi): density_i = 1 + Σ_k
/// (1 − d_k²/r_max²) over the `ndens` nearest neighbors, and the `nhop`
/// nearest neighbor indices are stored into `neighbors` (row i·nhop).
template <Executor E>
void hop_density_block(E& ex, const KdTree& tree, int ndens, int nhop,
                       std::size_t lo, std::size_t hi,
                       std::span<double> density,
                       std::span<std::uint32_t> neighbors,
                       std::vector<Neighbor>& scratch) {
  for (std::size_t i = lo; i < hi; ++i) {
    tree.knn(ex, static_cast<std::uint32_t>(i), ndens, scratch);
    const double rmax2 = scratch.empty() ? 1.0 : scratch.back().dist2;
    double rho = 1.0;  // self contribution
    for (const Neighbor& nb : scratch) {
      rho += rmax2 > 0.0 ? 1.0 - nb.dist2 / rmax2 : 1.0;
    }
    ex.compute(3 * scratch.size() + 1);
    density[i] = rho;
    ex.store(&density[i]);
    const int stored = std::min<int>(nhop, static_cast<int>(scratch.size()));
    for (int k = 0; k < nhop; ++k) {
      const std::size_t slot = i * static_cast<std::size_t>(nhop) +
                               static_cast<std::size_t>(k);
      neighbors[slot] = k < stored ? scratch[static_cast<std::size_t>(k)].index
                                   : static_cast<std::uint32_t>(i);
      ex.store(&neighbors[slot]);
    }
  }
}

/// True when particle `a` is "denser" than `b` under the cycle-free total
/// order (density, then lower index wins ties).
inline bool hop_denser(std::span<const double> density, std::uint32_t a,
                       std::uint32_t b) noexcept {
  return density[a] > density[b] ||
         (density[a] == density[b] && a < b);
}

/// Hop step for particles [lo, hi): parent_i = densest of {i} ∪
/// neighbors(i) under hop_denser (i itself when it is the local maximum).
template <Executor E>
void hop_parent_block(E& ex, std::span<const double> density,
                      std::span<const std::uint32_t> neighbors, int nhop,
                      std::size_t lo, std::size_t hi,
                      std::span<std::uint32_t> parent) {
  for (std::size_t i = lo; i < hi; ++i) {
    std::uint32_t best = static_cast<std::uint32_t>(i);
    ex.load(&density[i]);
    for (int k = 0; k < nhop; ++k) {
      const std::size_t slot = i * static_cast<std::size_t>(nhop) +
                               static_cast<std::size_t>(k);
      const std::uint32_t candidate = neighbors[slot];
      ex.load(&neighbors[slot]);
      ex.load(&density[candidate]);
      if (hop_denser(density, candidate, best)) best = candidate;
      ex.compute(2);
    }
    parent[i] = best;
    ex.store(&parent[i]);
  }
}

/// Chain chase for particles [lo, hi): root_i = fixed point of parent.
/// `parent` is read-only here so blocks can run concurrently.
template <Executor E>
void hop_chase_block(E& ex, std::span<const std::uint32_t> parent,
                     std::size_t lo, std::size_t hi,
                     std::span<std::uint32_t> root) {
  for (std::size_t i = lo; i < hi; ++i) {
    std::uint32_t r = static_cast<std::uint32_t>(i);
    for (;;) {
      ex.load(&parent[r]);
      const std::uint32_t next = parent[r];
      ex.compute(1);
      if (next == r) break;
      r = next;
    }
    root[i] = r;
    ex.store(&root[i]);
  }
}

/// Serial group indexing: assigns dense group ids to root particles and
/// maps every particle to its group.  Returns the group count; fills
/// `peak_of_group` with each group's root particle index.  Work is O(N),
/// independent of the thread count (a constant serial section).
template <Executor E>
int hop_index_groups(E& ex, std::span<const std::uint32_t> root,
                     std::span<std::int32_t> group_of,
                     std::vector<std::uint32_t>& peak_of_group) {
  std::vector<std::int32_t> gid_of_particle(root.size(), -1);
  peak_of_group.clear();
  int groups = 0;
  for (std::size_t i = 0; i < root.size(); ++i) {
    ex.load(&root[i]);
    const std::uint32_t r = root[i];
    if (gid_of_particle[r] < 0) {
      gid_of_particle[r] = groups++;
      peak_of_group.push_back(r);
      ex.compute(2);
    }
    group_of[i] = gid_of_particle[r];
    ex.store(&group_of[i]);
  }
  return groups;
}

/// Parallel block of the merge preparation: accumulates this thread's
/// group-size histogram (privatized) and collects boundary pairs between
/// different groups seen along neighbor edges.
template <Executor E>
void hop_boundary_block(E& ex, std::span<const std::int32_t> group_of,
                        std::span<const double> density,
                        std::span<const std::uint32_t> neighbors, int nhop,
                        std::size_t lo, std::size_t hi,
                        std::span<std::uint64_t> partial_sizes,
                        std::vector<HopBoundary>& boundaries) {
  for (std::size_t i = lo; i < hi; ++i) {
    ex.load(&group_of[i]);
    const std::int32_t gi = group_of[i];
    ++partial_sizes[static_cast<std::size_t>(gi)];
    ex.store(&partial_sizes[static_cast<std::size_t>(gi)]);
    for (int k = 0; k < nhop; ++k) {
      const std::size_t slot = i * static_cast<std::size_t>(nhop) +
                               static_cast<std::size_t>(k);
      const std::uint32_t j = neighbors[slot];
      ex.load(&neighbors[slot]);
      ex.load(&group_of[j]);
      const std::int32_t gj = group_of[j];
      ex.compute(1);
      if (gi == gj) continue;
      ex.load(&density[i]);
      ex.load(&density[j]);
      boundaries.push_back(
          {static_cast<std::uint32_t>(std::min(gi, gj)),
           static_cast<std::uint32_t>(std::max(gi, gj)),
           std::min(density[i], density[j])});
      ex.compute(3);
    }
  }
}

/// Merging phase (serial, master): reduces per-thread group-size
/// histograms Algorithm-1 style and walks every thread's boundary list,
/// joining groups whose saddle density exceeds `merge_saddle` times the
/// smaller peak density.  Work grows with the thread count.
template <Executor E>
void hop_merge_groups(E& ex,
                      runtime::PartialBuffers<std::uint64_t>& partials,
                      std::span<std::uint64_t> group_sizes,
                      const std::vector<std::vector<HopBoundary>>& boundaries,
                      std::span<const double> density,
                      std::span<const std::uint32_t> peak_of_group,
                      double merge_saddle, util::UnionFind& uf) {
  // Histogram reduction: for every group, accumulate every thread's count.
  runtime::merge(ex,
                 runtime::MergeWork{0, partials.threads(),
                                    runtime::MergeWork::kDest, 0,
                                    group_sizes.size()},
                 partials, group_sizes);
  // Boundary merge across all threads' lists.
  for (const auto& list : boundaries) {
    for (const HopBoundary& b : list) {
      ex.load(&b);
      const double peak_a = density[peak_of_group[b.group_a]];
      const double peak_b = density[peak_of_group[b.group_b]];
      ex.load(&peak_of_group[b.group_a]);
      ex.load(&peak_of_group[b.group_b]);
      ex.compute(3);
      if (b.saddle >= merge_saddle * std::min(peak_a, peak_b)) {
        uf.unite(b.group_a, b.group_b);
        ex.compute(4);
      }
    }
  }
}

/// Runs HOP natively on a `threads`-wide team; see run_kmeans_native for
/// the ledger contract.
HopResult run_hop_native(const PointSet& particles, const HopConfig& config,
                         int threads, runtime::PhaseLedger& ledger);

}  // namespace mergescale::workloads
