#pragma once
// Interleaved trace replay — the simulator's execution engine.
//
// Each phase of a workload yields one operation trace per participating
// core (recorded by sim::RecordingExecutor).  The replay engine plays the
// traces through the Machine's timing model with fine-grained global
// interleaving: at every step the core with the smallest local clock
// executes its next operation, so bus contention and MESI interactions
// between cores are ordered realistically.  The phase's duration is the
// latest core completion time; the machine clock advances past it so
// consecutive phases see warm caches and a monotone global clock.

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace mergescale::sim {

/// Result of replaying one phase.
struct ReplayResult {
  std::uint64_t cycles = 0;                ///< phase wall-clock in cycles
  std::vector<std::uint64_t> core_cycles;  ///< per-core busy cycles
  MemoryStats memory;                      ///< per-phase event deltas
  TraceSummary ops;                        ///< total executed operations
};

/// Replays `traces[i]` on core i of `machine` (traces.size() must not
/// exceed machine.cores()).  Compute operations retire at
/// issue_width per cycle; memory operations take Machine::access()
/// latency.  Returns the phase timing and statistics.
ReplayResult replay(Machine& machine, const std::vector<Trace>& traces);

}  // namespace mergescale::sim
