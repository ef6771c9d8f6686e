#pragma once
// Simulator backend: runs the workloads' phase sequences on the
// sim::Machine timing model, reproducing the paper's SESC methodology
// (§IV).
//
// SimulatedPhases is the phases.hpp backend the simulate_* entry points
// instantiate each workload's one phase sequence with.  Every phase is
// (a) executed for real — results are identical to the native run's —
// while a RecordingExecutor captures each participating core's operation
// trace, and (b) replayed through the machine's L1/MESI/L2 timing model
// with interleaving.  Phase durations in cycles are accumulated per phase
// class, yielding the core::PhaseProfile the calibration pipeline
// consumes.  Setup (init) is not simulated.

#include <cstdint>
#include <span>
#include <vector>

#include "core/calibrate.hpp"
#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "runtime/thread_team.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "workloads/apriori.hpp"
#include "workloads/dataset.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// Per-phase simulated cycle totals and memory-system activity.
struct SimPhases {
  std::uint64_t init = 0;
  std::uint64_t serial = 0;     ///< constant serial sections
  std::uint64_t reduction = 0;  ///< merging phase
  std::uint64_t parallel = 0;   ///< parallel sections
  sim::MemoryStats serial_mem;
  sim::MemoryStats reduction_mem;
  sim::MemoryStats parallel_mem;

  /// Total cycles excluding initialization.
  std::uint64_t total() const noexcept {
    return serial + reduction + parallel;
  }
  /// Serial-section cycles (constant serial + merging), paper definition.
  std::uint64_t serial_section() const noexcept {
    return serial + reduction;
  }
  /// Conversion to the calibration input type (cycles as the time unit).
  core::PhaseProfile profile(int cores) const;
};

/// Simulator backend (see phases.hpp for the operations): one thread per
/// simulated core.  Every phase records each core's trace and replays
/// the set once: a parallel phase records every core, a serial phase
/// core 0 alone (the other traces stay empty), and the merging phase
/// replays each step of the strategy's runtime::merge_schedule as its
/// own phase (the barrier between steps is the phase boundary).  Buffers
/// given to place() are traced at canonical addresses; all others at
/// their host addresses.
class SimulatedPhases {
 public:
  explicit SimulatedPhases(sim::Machine& machine)
      : machine_(&machine),
        traces_(static_cast<std::size_t>(machine.cores())) {}

  int threads() const noexcept { return machine_->cores(); }
  /// The cycles and memory activity accumulated so far.
  const SimPhases& phases() const noexcept { return phases_; }

  template <typename Fn>
  auto init(std::uint64_t, Fn&& fn) {
    return fn();
  }

  template <typename Body>
  void parallel(Body&& body) {
    record(runtime::Phase::kParallel, body);
  }

  template <typename Body>
  void serial(runtime::Phase phase, Body&& body) {
    record(phase, [&](auto& ex, int tid, int) {
      if (tid == 0) body(ex);
    });
  }

  template <typename Body>
  void serial(runtime::Phase phase, std::uint64_t, Body&& body) {
    serial(phase, body);
  }

  template <typename T>
  void merge(runtime::ReductionStrategy strategy,
             runtime::PartialBuffers<T>& partials, std::span<T> dest) {
    MS_CHECK(partials.threads() == threads(),
             "need one partial per simulated core");
    for (const runtime::MergeStep& step :
         runtime::merge_schedule(strategy, threads(), dest.size())) {
      record(runtime::Phase::kReduction, [&](auto& ex, int tid, int) {
        if (static_cast<std::size_t>(tid) < step.size()) {
          runtime::merge(ex, step[static_cast<std::size_t>(tid)], partials,
                         dest);
        }
      });
    }
  }

  template <typename T>
  void place(std::span<T> buffer) {
    map_.add(buffer);
  }
  template <typename T>
  void place(runtime::PartialBuffers<T>& partials) {
    for (int t = 0; t < partials.threads(); ++t) map_.add(partials.partial(t));
  }

 private:
  /// Records body(ex, tid, threads) for every core, then replays the
  /// traces as one phase charged to `phase`.
  template <typename Body>
  void record(runtime::Phase phase, Body&& body) {
    for (int tid = 0; tid < threads(); ++tid) {
      sim::RecordingExecutor ex(traces_[static_cast<std::size_t>(tid)],
                                &map_);
      body(ex, tid, threads());
      ex.flush_compute();
    }
    replay(phase);
  }

  /// Replays the recorded traces charged to `phase`, then empties them.
  void replay(runtime::Phase phase);

  sim::Machine* machine_;
  sim::AddressMap map_;
  std::vector<sim::Trace> traces_;
  SimPhases phases_;
};

/// Simulates k-means on `machine` (one thread per simulated core).
/// When `result_out` is non-null the clustering result is stored there
/// (it matches run_kmeans_native exactly).
SimPhases simulate_kmeans(const PointSet& points,
                          const ClusteringConfig& config, sim::Machine& machine,
                          ClusteringResult* result_out = nullptr);

/// Simulates fuzzy c-means; see simulate_kmeans.
SimPhases simulate_fuzzy(const PointSet& points, const ClusteringConfig& config,
                         sim::Machine& machine,
                         ClusteringResult* result_out = nullptr);

/// Simulates HOP; see simulate_kmeans.
SimPhases simulate_hop(const PointSet& particles, const HopConfig& config,
                       sim::Machine& machine, HopResult* result_out = nullptr);

/// Simulates apriori frequent-itemset mining; see simulate_kmeans.
SimPhases simulate_apriori(const TransactionSet& data,
                           const AprioriConfig& config, sim::Machine& machine,
                           AprioriResult* result_out = nullptr);

}  // namespace mergescale::workloads
