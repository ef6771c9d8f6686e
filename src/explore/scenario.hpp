#pragma once
// Declarative scenario specification for parallel design-space
// exploration.  A ScenarioSpec names the axes of a sweep — chip budgets ×
// applications × growth functions × model variants × NoC topologies ×
// candidate core sizes — and expands their cross product into a flat,
// deterministically ordered list of evaluation jobs for the explore
// engine.  This is the batch counterpart of the paper's per-figure sweeps
// (Figs. 4/5/7): one spec can span all of them in a single run.
//
// This header owns the scenario's whole vocabulary:
//   - the run config, the "apps=..;budgets=..;..." text a run directory's
//     meta.json records: to_config writes it, from_config parses it back
//     into the spec (explore_cli evaluates, resume verifies and serve_cli
//     serves that one parse), and config_token reads any single token;
//   - the label lookup (find_label), which maps the app / growth /
//     topology labels a log record or a query carries to spec entries;
//   - the point builder (point_job), the one place resolved axis values
//     become an EvalJob — expand(), search::SearchSpace::job_at,
//     search::RunLog::warm and the server's eval resolution all call it.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/app_params.hpp"
#include "core/design_space.hpp"
#include "core/perf.hpp"
#include "noc/topology.hpp"

namespace mergescale::explore {

/// One expanded evaluation job: the unified core::EvalRequest plus the
/// scenario coordinates it came from.  `index` is the job's position in
/// expansion order; the engine writes its result to the same slot, so
/// result ordering is deterministic regardless of thread count.
///
/// Jobs are deliberately self-contained (each carries its own request
/// copy) so lists can be filtered, merged, or outlive their spec.  The
/// copies put expansion at ~0.3 µs/job — on par with a warm cache hit
/// and well below a cold evaluation — an accepted trade for the simpler
/// ownership story.
struct EvalJob {
  std::size_t index = 0;
  core::EvalRequest request;
  std::string scenario;        ///< ScenarioSpec::name
  std::string topology = "-";  ///< interconnect label, "-" for Eqs. 4/5
};

/// Declarative sweep description.  Every axis has the paper's default so
/// a spec only needs to name what it varies; `apps` is the one axis that
/// must be filled in.  Expansion order is the nested-loop order of the
/// field declarations below (budgets outermost, core sizes innermost).
struct ScenarioSpec {
  std::string name = "scenario";

  /// Chip budgets n in BCEs (outermost axis).
  std::vector<double> chip_budgets = {256.0};
  /// Per-core performance law shared by all evaluated chips.
  core::PerfLaw perf = core::PerfLaw::pollack();
  /// Applications to evaluate (required, no default).
  std::vector<core::AppParams> apps;
  /// Reduction growth functions (g_comp for the comm variants).
  std::vector<core::GrowthFunction> growths = {
      core::GrowthFunction::linear()};
  /// Model variants to evaluate each point under.
  std::vector<core::ModelVariant> variants = {
      core::ModelVariant::kSymmetric, core::ModelVariant::kAsymmetric};
  /// Interconnects for the comm variants (ignored by Eqs. 4/5).
  std::vector<noc::Topology> topologies = {noc::Topology::kMesh2D};
  /// Small-core sizes r for the asymmetric variants (the paper's 1/4/16).
  std::vector<double> small_core_sizes = {1.0, 4.0, 16.0};
  /// Candidate core sizes (r for symmetric, rl for asymmetric).  Empty
  /// means power_of_two_sizes(n) per budget, the paper's x-axis.  Sizes
  /// (and small_core_sizes) larger than a budget n are dropped for that
  /// budget — a 512-BCE core is not a design point of a 256-BCE chip.
  std::vector<double> sizes;
  /// Communication split fcomp/(fcomp+fcomm) for the comm variants.
  double comp_share = 0.5;

  /// Throws std::invalid_argument when an axis is empty or out of range.
  void validate() const;

  /// Materializes the cross product in deterministic order.  Infeasible
  /// asymmetric points are *included* (the engine marks them
  /// infeasible); a repeated axis value repeats its jobs.
  std::vector<EvalJob> expand() const;
};

// ---------------------------------------------------------------------------
// Run config
// ---------------------------------------------------------------------------

/// The scenario tokens of a run config as a command line spells them:
/// each axis a comma list, recorded verbatim (so a resume compares what
/// was typed), and the four numeric tokens as values.  f/fcon/fored are
/// the parameters of the `custom` app and are recorded whether or not it
/// is listed.
struct ScenarioConfig {
  std::string apps;         ///< kmeans|fuzzy|hop|custom
  std::string budgets;      ///< chip budgets in BCEs
  std::string growths;      ///< linear|log|parallel
  std::string variants;     ///< core::parse_model_variant names
  std::string topologies;   ///< noc::parse_topology names
  std::string small_cores;  ///< small-core sizes r
  std::string sizes;        ///< candidate core sizes; empty = powers of two
  double comp_share = 0.5;
  double f = 0.99;
  double fcon = 0.60;
  double fored = 0.80;
};

/// Writes `scenario` as run-config text, "apps=..;budgets=..;growths=..;
/// variants=..;topologies=..;small-cores=..;sizes=..;comp-share=..;f=..;
/// fcon=..;fored=..".  A number keeps its 6-significant-digit "%g" text
/// when that parses back to the same double, so configs recorded before
/// the codec was lossless still compare equal, and otherwise takes the
/// shortest text that parses back exactly.
std::string to_config(const ScenarioConfig& scenario);

/// Appends ";key=value": the tokens a run pins after its scenario
/// (strategy, seed, batch, ...).
void append_config_token(std::string& config, std::string_view key,
                         std::string_view value);

/// The value of `key` in a run config, std::nullopt when it has none (a
/// repeated key yields its last value).  Throws std::runtime_error on a
/// token without '='.
std::optional<std::string> config_token(std::string_view config,
                                        std::string_view key);

/// Parses a run config back into the ScenarioSpec it describes, named
/// `name`.  The inverse of to_config, bit-exact for every number.
/// Search-only tokens (strategy, seed, batch, walkers, population,
/// cost-metric, shards) are ignored: they shape a proposal sequence, not
/// the space.  Throws std::runtime_error on a malformed token, a missing
/// axis, an unknown name or an unparsable number (naming it), and
/// std::invalid_argument when the spec fails validate().
ScenarioSpec from_config(std::string_view config, std::string name);

/// The run-config token that pins a run's shard topology (";shards=K").
/// Every shard of one run shares the same token — the per-shard identity
/// i lives in the shard's result-file name — so K processes can verify
/// one shared meta record without racing on per-process contents, and a
/// shard launched under a different K (a different partition of the same
/// space) is refused at resume time.
std::string shard_config_token(std::size_t shard_count);

/// Removes a shard_config_token from `config`, yielding the base config
/// a folded (single-archive) run directory is equivalent to.  Configs
/// without a token pass through unchanged.
std::string strip_shard_config(std::string config);

// ---------------------------------------------------------------------------
// Label lookup and point builder
// ---------------------------------------------------------------------------

/// The label a log record or a query names an axis entry by.
inline std::string_view label_of(const core::AppParams& app) {
  return app.name;
}
inline std::string_view label_of(const core::GrowthFunction& law) {
  return law.name();
}
inline std::string_view label_of(noc::Topology topology) {
  return noc::topology_name(topology);
}

/// The label lookup: the first entry of an axis (spec.apps,
/// spec.growths, spec.topologies or comm_laws(spec)) whose label — app
/// name, law name, topology name — is `label`; nullptr when none is.
template <typename Entry>
const Entry* find_label(const std::vector<Entry>& axis,
                        std::string_view label) {
  for (const Entry& entry : axis) {
    if (label_of(entry) == label) return &entry;
  }
  return nullptr;
}

/// The communication growth law of each of spec.topologies, in order,
/// each named after its topology's label.  core::comm_growth interns a
/// name per call, so callers build these once, never per point.
std::vector<core::GrowthFunction> comm_laws(const ScenarioSpec& spec);

/// The point builder: the job evaluating `variant` on a chip of n BCEs
/// under spec.perf for `app` and `growth`, with core sizes r and rl.
/// The comm variants take `comm` (an entry of comm_laws(spec), non-null)
/// as their comm growth, spec.comp_share as their split and the law's
/// name as the topology label; the others keep core::EvalRequest's
/// defaults and label "-".  Symmetric variants never read rl and get 0.
/// The job is index 0 of scenario spec.name.
EvalJob point_job(const ScenarioSpec& spec, core::ModelVariant variant,
                  double n, const core::AppParams& app,
                  const core::GrowthFunction& growth,
                  const core::GrowthFunction* comm, double r, double rl);

/// The same job, written into `job`.  Fields `job` already holds are
/// kept (a law judged by kind, interned name and exponent), so refilling
/// a reused slot costs a few compares, not a fresh EvalJob.
void point_job(EvalJob& job, const ScenarioSpec& spec,
               core::ModelVariant variant, double n,
               const core::AppParams& app, const core::GrowthFunction& growth,
               const core::GrowthFunction* comm, double r, double rl);

}  // namespace mergescale::explore
