#include "workloads/sim_adapter.hpp"

#include "sim/replay.hpp"
#include "util/check.hpp"

namespace mergescale::workloads {

namespace {

/// Adds one replayed phase to the bucket of its phase class.
void charge(SimPhases& phases, runtime::Phase phase,
            const sim::ReplayResult& r) {
  switch (phase) {
    case runtime::Phase::kInit:
      phases.init += r.cycles;
      return;
    case runtime::Phase::kSerial:
      phases.serial += r.cycles;
      phases.serial_mem += r.memory;
      return;
    case runtime::Phase::kReduction:
      phases.reduction += r.cycles;
      phases.reduction_mem += r.memory;
      return;
    case runtime::Phase::kParallel:
      phases.parallel += r.cycles;
      phases.parallel_mem += r.memory;
      return;
  }
  MS_CHECK(false, "unknown phase");
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

void SimulatedPhases::replay(runtime::Phase phase) {
  charge(phases_, phase, sim::replay(*machine_, traces_));
  traces_.assign(traces_.size(), sim::Trace{});
}

}  // namespace mergescale::workloads
