#pragma once
// Phase instrumentation for the clustering workloads.  The paper derives
// all of its model parameters from per-phase timings (initialization,
// constant serial sections, merging phase, parallel sections); this ledger
// accumulates those timings and converts them into core::PhaseProfile for
// the calibration pipeline.
//
// Besides wall-clock seconds the ledger counts abstract work units
// (operations) per phase.  Operation counts are machine-independent, which
// matters on CI hosts with fewer hardware threads than the team size:
// wall-clock parallel time is then distorted by oversubscription, but the
// growth of merging-phase *work* with core count — the paper's central
// observation — is still measured exactly.

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "core/calibrate.hpp"

namespace mergescale::runtime {

/// Workload phase classes, mirroring the paper's serial-section split-up.
enum class Phase : int {
  kInit = 0,      ///< excluded from fractions, like the paper's setup time
  kSerial = 1,    ///< constant serial sections (non-reduction)
  kReduction = 2, ///< merging phase
  kParallel = 3,  ///< parallel sections
};

/// Number of phase classes.
inline constexpr int kPhaseCount = 4;

/// Printable phase name.
std::string_view phase_name(Phase phase) noexcept;

/// Accumulates seconds and operation counts per phase.  Not thread-safe;
/// workloads keep one ledger on the master thread and only time phases at
/// region granularity (phase boundaries are barriers, so this is exact).
class PhaseLedger {
 public:
  /// Starts timing `phase`; finish with stop().  Phases may not nest.
  void start(Phase phase);
  /// Stops the running phase and accumulates its duration.
  void stop();
  /// True while a phase is being timed.
  bool running() const noexcept { return running_; }

  /// Adds `ops` abstract work units to `phase` (no timing involved).
  void add_ops(Phase phase, std::uint64_t ops) noexcept;
  /// Adds seconds directly, for callers that measure time themselves
  /// (the tests do).
  void add_seconds(Phase phase, double seconds) noexcept;

  /// Accumulated seconds in `phase`.
  double seconds(Phase phase) const noexcept;
  /// Accumulated operations in `phase`.
  std::uint64_t ops(Phase phase) const noexcept;
  /// Sum over all phases except kInit.
  double total_seconds() const noexcept;

  /// Converts to the calibration input type using wall-clock seconds.
  core::PhaseProfile profile_seconds(int cores) const;
  /// Converts to the calibration input type using operation counts
  /// (machine-independent; parallel ops are divided by `cores` to model
  /// the per-core share, matching what per-core wall-clock time measures).
  core::PhaseProfile profile_ops(int cores) const;

  /// Resets all accumulators.
  void reset() noexcept;

  /// RAII phase scope.
  class Scope {
   public:
    Scope(PhaseLedger& ledger, Phase phase) : ledger_(ledger) {
      ledger_.start(phase);
    }
    ~Scope() { ledger_.stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseLedger& ledger_;
  };

 private:
  using Clock = std::chrono::steady_clock;

  std::array<double, kPhaseCount> seconds_{};
  std::array<std::uint64_t, kPhaseCount> ops_{};
  Clock::time_point started_{};
  Phase current_ = Phase::kInit;
  bool running_ = false;
};

}  // namespace mergescale::runtime
