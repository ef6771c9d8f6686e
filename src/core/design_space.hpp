#pragma once
// Design-space exploration utilities: sweep core sizes (symmetric) or
// large-core/small-core size pairs (asymmetric) over a chip budget and
// locate the speedup-optimal configuration.  These drive the paper's
// Figs. 4, 5 and 7 and its §V-D peak-speedup comparisons.

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/app_params.hpp"
#include "core/chip.hpp"
#include "core/comm_model.hpp"
#include "core/growth.hpp"

namespace mergescale::core {

/// One evaluated design point.
struct DesignPoint {
  double r = 1.0;        ///< small/uniform core size in BCEs
  double rl = 0.0;       ///< large-core size in BCEs (0 for symmetric)
  double speedup = 0.0;  ///< predicted speedup vs. one BCE
};

/// Which speedup model a design point is evaluated under.
enum class ModelVariant {
  kSymmetric,       ///< Eq. 4 — reduction-aware symmetric CMP
  kAsymmetric,      ///< Eq. 5 — reduction-aware asymmetric CMP
  kSymmetricComm,   ///< Eq. 6 — communication-aware symmetric CMP
  kAsymmetricComm,  ///< Eq. 7 — communication-aware asymmetric CMP
};

/// Printable variant name ("symmetric", "asymmetric-comm", ...).
std::string_view model_variant_name(ModelVariant variant) noexcept;

/// Parses a variant name (throws std::invalid_argument).
ModelVariant parse_model_variant(std::string_view name);

/// True for the communication-aware variants (Eqs. 6/7).
bool is_comm_variant(ModelVariant variant) noexcept;

/// True for the asymmetric variants (Eqs. 5/7), which sweep rl at fixed r.
bool is_asymmetric_variant(ModelVariant variant) noexcept;

/// Everything needed to evaluate one candidate design under one model —
/// the unified entry point behind evaluate_sweep and the explore engine.  For the comm variants the AppParams are split into
/// computation/communication shares via `comp_share` (paper: 0.5) and
/// `growth` acts as the computation growth g_comp while `comm_growth`
/// supplies the interconnect growth g_comm.
struct EvalRequest {
  ModelVariant variant = ModelVariant::kSymmetric;
  ChipConfig chip;
  AppParams app;
  GrowthFunction growth = GrowthFunction::linear();
  GrowthFunction comm_growth = GrowthFunction::parallel();
  double comp_share = 0.5;  ///< fcomp / (fcomp + fcomm), comm variants only
  double r = 1.0;           ///< small/uniform core size in BCEs
  double rl = 0.0;          ///< large-core size, asymmetric variants only
};

/// True when r-BCE small cores do not fit next to an rl-BCE large core —
/// the asymmetric models return no design point for such requests.
inline bool asymmetric_infeasible(const ChipConfig& chip, double rl,
                                  double r) noexcept {
  return rl < chip.n && r > chip.n - rl;
}

/// Evaluates a batch of design points through the grouped SoA kernels of
/// eval_batch.hpp — the repo's single evaluation path.  `results[i]`
/// receives the outcome of `requests[i]`: std::nullopt for *infeasible*
/// asymmetric points (the r-BCE small cores do not fit next to the large
/// core), a DesignPoint otherwise.  Invalid parameters (r < 1,
/// out-of-range fractions, ...) throw std::invalid_argument for the
/// first offending request in input order.  `results.size()` must equal
/// `requests.size()`.  This overload manages its own per-thread scratch;
/// hot callers pass an EvalBatch explicitly (see eval_batch.hpp).
void evaluate_batch(std::span<const EvalRequest> requests,
                    std::span<std::optional<DesignPoint>> results);

/// Evaluates one design point: a one-element evaluate_batch.  Returns
/// std::nullopt for infeasible asymmetric points; invalid parameters
/// still throw std::invalid_argument.
inline std::optional<DesignPoint> evaluate(const EvalRequest& request) {
  std::optional<DesignPoint> result;
  evaluate_batch(std::span<const EvalRequest>(&request, 1),
                 std::span<std::optional<DesignPoint>>(&result, 1));
  return result;
}

/// Scalar reference implementation of evaluate() — one request at a
/// time through the plain model formulas, no grouping or planes.  The
/// batch path is required to match it bit for bit (the equivalence
/// property test and bench_eval_throughput's baseline both lean on it);
/// production callers use evaluate / evaluate_batch.
std::optional<DesignPoint> evaluate_reference(const EvalRequest& request);

/// Evaluates `base` at each size in `sizes` through one evaluate_batch
/// call and drops infeasible points.  The size plugs into rl for the
/// asymmetric variants (small-core size fixed at base.r) and into r
/// otherwise — the paper's Figs. 4/5/7 sweep shapes.
std::vector<DesignPoint> evaluate_sweep(const EvalRequest& base,
                                        std::span<const double> sizes);

/// EvalRequest for a communication-model evaluation (Eqs. 6/7):
/// re-folds the CommAppParams split into the AppParams + comp_share
/// form EvalRequest carries.
EvalRequest make_comm_request(ModelVariant variant, const ChipConfig& chip,
                              const CommAppParams& app,
                              const GrowthFunction& grow_comp,
                              const GrowthFunction& grow_comm);

/// The power-of-two core sizes 1, 2, 4, …, n used as the x-axis of the
/// paper's Figs. 4/5/7.
std::vector<double> power_of_two_sizes(double n);

/// Best (highest-speedup) point of a sweep.
///
/// Contract: throws std::invalid_argument when `sweep` is empty.  Callers
/// must be aware that evaluate_sweep over an asymmetric variant silently
/// *skips* infeasible points and can therefore return an empty vector (e.g.
/// r larger than every n − rl); use try_best_point when an empty sweep is
/// an expected outcome rather than a caller bug.
DesignPoint best_point(const std::vector<DesignPoint>& sweep);

/// Best point of a sweep, or std::nullopt when the sweep is empty.  Never
/// throws; this is the form the explore engine uses so that fully
/// infeasible scenario slices degrade to "no result" instead of aborting
/// a batch.
std::optional<DesignPoint> try_best_point(
    const std::vector<DesignPoint>& sweep) noexcept;

/// Speedup-optimal symmetric design over power-of-two core sizes.
DesignPoint optimal_symmetric(const ChipConfig& chip, const AppParams& app,
                              const GrowthFunction& growth);

/// Speedup-optimal asymmetric design over power-of-two (rl, r) pairs.
DesignPoint optimal_asymmetric(const ChipConfig& chip, const AppParams& app,
                               const GrowthFunction& growth);

}  // namespace mergescale::core
