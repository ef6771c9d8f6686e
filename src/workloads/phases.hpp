#pragma once
// Phase backends: one phase sequence per workload, run natively or on the
// timing simulator.
//
// Each workload writes its phase sequence once (kmeans.cpp, fuzzy.cpp,
// hop.cpp, apriori.cpp) as a template over a backend `P`; run_*_native
// instantiates it with NativePhases below and simulate_* with
// SimulatedPhases (sim_adapter.hpp).  A backend offers:
//
//   threads()              cores the phases are partitioned over;
//   init(ops, fn)          setup: returns fn(); natively timed as
//                          Phase::kInit and charged `ops` operations,
//                          not simulated;
//   parallel(body)         a parallel phase: body(ex, tid, threads) once
//                          per core;
//   serial(phase, body)    body(ex) on core 0, charged to `phase`;
//   serial(phase, ops, body)
//                          the same, but the native ledger is charged the
//                          fixed `ops` instead of the annotated events;
//   merge(strategy, partials, dest)
//                          the merging phase: dest += Σ partials under
//                          `strategy`, following its
//                          runtime::merge_schedule;
//   place(buffer)          gives a buffer a canonical simulated address
//                          (sim::AddressMap); a no-op natively.
//
// `ex` is a runtime::Executor: a CountingExecutor (or NativeExecutor)
// natively, a sim::RecordingExecutor on the simulator.

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "runtime/thread_team.hpp"

namespace mergescale::workloads {

/// Native backend: phases run on a ThreadTeam, timed by a PhaseLedger
/// that also counts each phase's annotated operations.  The merging
/// phase runs the strategy's runtime::merge_schedule with runtime::reduce
/// and is charged the schedule's critical path.
class NativePhases {
 public:
  NativePhases(int threads, runtime::PhaseLedger& ledger)
      : team_(threads),
        ledger_(&ledger),
        counters_(static_cast<std::size_t>(threads)) {}

  int threads() const noexcept { return team_.size(); }

  template <typename Fn>
  auto init(std::uint64_t ops, Fn&& fn) {
    ledger_->add_ops(runtime::Phase::kInit, ops);
    runtime::PhaseLedger::Scope scope(*ledger_, runtime::Phase::kInit);
    return fn();
  }

  template <typename Body>
  void parallel(Body&& body) {
    ledger_->start(runtime::Phase::kParallel);
    team_.run([&](int tid, int threads) {
      body(counters_[static_cast<std::size_t>(tid)], tid, threads);
    });
    ledger_->stop();
    drain(runtime::Phase::kParallel);
  }

  template <typename Body>
  void serial(runtime::Phase phase, Body&& body) {
    ledger_->start(phase);
    body(counters_[0]);
    ledger_->stop();
    drain(phase);
  }

  template <typename Body>
  void serial(runtime::Phase phase, std::uint64_t ops, Body&& body) {
    runtime::NativeExecutor ex;
    ledger_->start(phase);
    body(ex);
    ledger_->stop();
    ledger_->add_ops(phase, ops);
  }

  template <typename T>
  void merge(runtime::ReductionStrategy strategy,
             runtime::PartialBuffers<T>& partials, std::span<T> dest) {
    const auto schedule =
        runtime::merge_schedule(strategy, partials.threads(), dest.size());
    ledger_->start(runtime::Phase::kReduction);
    runtime::reduce(schedule, team_, dest, partials);
    ledger_->stop();
    ledger_->add_ops(runtime::Phase::kReduction,
                     runtime::critical_path(schedule));
  }

  template <typename Buffer>
  void place(const Buffer&) noexcept {}

 private:
  /// Charges every core's counted events to `phase` and resets them.
  void drain(runtime::Phase phase) {
    for (auto& ex : counters_) {
      ledger_->add_ops(phase, ex.total());
      ex = runtime::CountingExecutor{};
    }
  }

  runtime::ThreadTeam team_;
  runtime::PhaseLedger* ledger_;
  std::vector<runtime::CountingExecutor> counters_;
};

}  // namespace mergescale::workloads
