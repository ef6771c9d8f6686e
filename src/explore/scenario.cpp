#include "explore/scenario.hpp"

#include <charconv>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "core/comm_model.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace mergescale::explore {

namespace {

/// Sizes from `candidates` that fit budget n (a core cannot exceed the
/// whole chip).
std::vector<double> fitting(const std::vector<double>& candidates, double n) {
  std::vector<double> kept;
  kept.reserve(candidates.size());
  for (double size : candidates) {
    if (size <= n) kept.push_back(size);
  }
  return kept;
}

/// Candidate core sizes for one chip budget.
std::vector<double> sizes_for(const ScenarioSpec& spec, double n) {
  return spec.sizes.empty() ? core::power_of_two_sizes(n)
                            : fitting(spec.sizes, n);
}

}  // namespace

void ScenarioSpec::validate() const {
  MS_CHECK(!chip_budgets.empty(), "scenario needs at least one chip budget");
  MS_CHECK(!apps.empty(), "scenario needs at least one application");
  MS_CHECK(!growths.empty(), "scenario needs at least one growth function");
  MS_CHECK(!variants.empty(), "scenario needs at least one model variant");
  MS_CHECK(comp_share >= 0.0 && comp_share <= 1.0,
           "comp_share must lie in [0, 1]");
  for (double n : chip_budgets) {
    MS_CHECK(n >= 1.0, "chip budget must be at least one BCE");
  }
  for (double size : sizes) {
    MS_CHECK(size >= 1.0, "candidate core sizes must be at least one BCE");
  }
  for (double r : small_core_sizes) {
    MS_CHECK(r >= 1.0, "small-core sizes must be at least one BCE");
  }
  for (const auto& app : apps) app.validate();
  for (core::ModelVariant variant : variants) {
    if (core::is_comm_variant(variant)) {
      MS_CHECK(!topologies.empty(), "comm variants need at least one topology");
    }
    if (core::is_asymmetric_variant(variant)) {
      MS_CHECK(!small_core_sizes.empty(),
               "asymmetric variants need at least one small-core size");
    }
  }
}

std::vector<EvalJob> ScenarioSpec::expand() const {
  validate();
  std::vector<EvalJob> jobs;
  const std::vector<core::GrowthFunction> comms = comm_laws(*this);

  for (double n : chip_budgets) {
    const std::vector<double> grid = sizes_for(*this, n);
    const std::vector<double> smalls = fitting(small_core_sizes, n);
    for (const auto& app : apps) {
      for (const auto& growth : growths) {
        for (core::ModelVariant variant : variants) {
          const bool comm = core::is_comm_variant(variant);
          const std::size_t n_topologies = comm ? comms.size() : 1;
          for (std::size_t t = 0; t < n_topologies; ++t) {
            const core::GrowthFunction* law = comm ? &comms[t] : nullptr;
            auto emit = [&](double r, double rl) {
              jobs.push_back(
                  point_job(*this, variant, n, app, growth, law, r, rl));
              jobs.back().index = jobs.size() - 1;
            };
            if (core::is_asymmetric_variant(variant)) {
              for (double r : smalls) {
                for (double rl : grid) emit(r, rl);
              }
            } else {
              for (double r : grid) emit(r, 0.0);
            }
          }
        }
      }
    }
  }
  return jobs;
}

namespace {

/// Every token of a run config as key → value; a repeated key keeps its
/// last value.
std::map<std::string, std::string, std::less<>> config_tokens(
    std::string_view config) {
  std::map<std::string, std::string, std::less<>> tokens;
  for (const auto& token : util::split_list(config, ';')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("run config: malformed token '" + token + "'");
    }
    tokens[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return tokens;
}

/// A config number: "%g"'s 6 significant digits when they round-trip
/// (the text every earlier build recorded), else the shortest exact text.
std::string config_number(double value) {
  std::string text = util::format_general(value, 6);
  if (std::strtod(text.c_str(), nullptr) == value) return text;
  char shortest[32];
  const auto [end, ec] =
      std::to_chars(shortest, shortest + sizeof shortest, value);
  return std::string(shortest, end);
}

double parse_number(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::runtime_error("run config: " + what +
                             " expects a number, got '" + text + "'");
  }
  return value;
}

std::vector<double> parse_numbers(const std::string& text,
                                  const std::string& what) {
  std::vector<double> values;
  for (const auto& token : util::split_list(text)) {
    values.push_back(parse_number(token, what));
  }
  return values;
}

}  // namespace

std::string to_config(const ScenarioConfig& scenario) {
  std::string config = "apps=" + scenario.apps;
  append_config_token(config, "budgets", scenario.budgets);
  append_config_token(config, "growths", scenario.growths);
  append_config_token(config, "variants", scenario.variants);
  append_config_token(config, "topologies", scenario.topologies);
  append_config_token(config, "small-cores", scenario.small_cores);
  append_config_token(config, "sizes", scenario.sizes);
  append_config_token(config, "comp-share", config_number(scenario.comp_share));
  append_config_token(config, "f", config_number(scenario.f));
  append_config_token(config, "fcon", config_number(scenario.fcon));
  append_config_token(config, "fored", config_number(scenario.fored));
  return config;
}

void append_config_token(std::string& config, std::string_view key,
                         std::string_view value) {
  config.append(";").append(key).append("=").append(value);
}

std::optional<std::string> config_token(std::string_view config,
                                        std::string_view key) {
  const auto tokens = config_tokens(config);
  const auto it = tokens.find(key);
  if (it == tokens.end()) return std::nullopt;
  return it->second;
}

ScenarioSpec from_config(std::string_view config, std::string name) {
  // All tokens first: a custom app needs f/fcon/fored, which follow the
  // apps token.
  const auto tokens = config_tokens(config);
  auto require = [&tokens,
                  config](const std::string& key) -> const std::string& {
    const auto it = tokens.find(key);
    if (it == tokens.end()) {
      throw std::runtime_error("run config: missing '" + key + "=' in '" +
                               std::string(config) + "'");
    }
    return it->second;
  };

  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.chip_budgets = parse_numbers(require("budgets"), "budgets");
  const std::vector<core::AppParams> presets = core::presets::minebench();
  for (const auto& app : util::split_list(require("apps"))) {
    if (app == "custom") {
      core::AppParams custom{"custom", parse_number(require("f"), "f"),
                             parse_number(require("fcon"), "fcon"),
                             parse_number(require("fored"), "fored")};
      custom.validate();
      spec.apps.push_back(custom);
    } else if (const core::AppParams* preset = find_label(presets, app)) {
      spec.apps.push_back(*preset);
    } else {
      throw std::runtime_error("run config: unknown app '" + app + "'");
    }
  }
  const std::vector<core::GrowthFunction> laws = {
      core::GrowthFunction::linear(), core::GrowthFunction::logarithmic(),
      core::GrowthFunction::parallel()};
  spec.growths.clear();
  for (const auto& growth : util::split_list(require("growths"))) {
    const core::GrowthFunction* law = find_label(laws, growth);
    if (law == nullptr) {
      throw std::runtime_error("run config: unknown growth '" + growth + "'");
    }
    spec.growths.push_back(*law);
  }
  spec.variants.clear();
  for (const auto& variant : util::split_list(require("variants"))) {
    spec.variants.push_back(core::parse_model_variant(variant));
  }
  spec.topologies.clear();
  for (const auto& topology : util::split_list(require("topologies"))) {
    spec.topologies.push_back(noc::parse_topology(topology));
  }
  spec.small_core_sizes =
      parse_numbers(require("small-cores"), "small-cores");
  // sizes= may be empty or absent: the spec default (powers of two per
  // budget).
  if (const auto it = tokens.find("sizes"); it != tokens.end()) {
    spec.sizes = parse_numbers(it->second, "sizes");
  }
  spec.comp_share = parse_number(require("comp-share"), "comp-share");
  spec.validate();
  return spec;
}

std::string shard_config_token(std::size_t shard_count) {
  return ";shards=" + std::to_string(shard_count);
}

std::string strip_shard_config(std::string config) {
  const std::size_t at = config.find(";shards=");
  if (at == std::string::npos) return config;
  std::size_t end = config.find(';', at + 1);
  if (end == std::string::npos) end = config.size();
  config.erase(at, end - at);
  return config;
}

std::vector<core::GrowthFunction> comm_laws(const ScenarioSpec& spec) {
  std::vector<core::GrowthFunction> laws;
  laws.reserve(spec.topologies.size());
  for (noc::Topology topology : spec.topologies) {
    laws.push_back(core::comm_growth(topology));
  }
  return laws;
}

namespace {

/// Copies `src` into `dst` unless `dst` already holds it, so refilling a
/// reused job slot skips the string and std::function copies.  Laws are
/// judged by (kind, interned name, exponent), as the cache key and the
/// batch grouping judge them.
void assign(core::GrowthFunction& dst, const core::GrowthFunction& src) {
  if (dst.kind() != src.kind() || dst.name_id() != src.name_id() ||
      dst.exponent() != src.exponent()) {
    dst = src;
  }
}

void assign(core::PerfLaw& dst, const core::PerfLaw& src) {
  if (dst.name_id() != src.name_id() || dst.exponent() != src.exponent()) {
    dst = src;
  }
}

void assign(core::AppParams& dst, const core::AppParams& src) {
  if (dst.f != src.f || dst.fcon != src.fcon || dst.fored != src.fored ||
      dst.name != src.name) {
    dst = src;
  }
}

void assign(std::string& dst, std::string_view src) {
  if (dst != src) dst = src;
}

/// A job holding the request defaults, built once: copying it interns
/// no law names.
const EvalJob& blank_job() {
  static const EvalJob kBlank;
  return kBlank;
}

}  // namespace

void point_job(EvalJob& job, const ScenarioSpec& spec,
               core::ModelVariant variant, double n,
               const core::AppParams& app, const core::GrowthFunction& growth,
               const core::GrowthFunction* comm, double r, double rl) {
  // Fields a variant never reads keep the request defaults.
  const core::EvalRequest& defaults = blank_job().request;
  const bool with_comm = core::is_comm_variant(variant);
  MS_CHECK(!with_comm || comm != nullptr, "comm variants need a comm law");
  core::EvalRequest& request = job.request;
  job.index = 0;
  request.variant = variant;
  request.chip.n = n;
  assign(request.chip.perf, spec.perf);
  assign(request.app, app);
  assign(request.growth, growth);
  assign(request.comm_growth, with_comm ? *comm : defaults.comm_growth);
  request.comp_share = with_comm ? spec.comp_share : defaults.comp_share;
  request.r = r;
  request.rl = core::is_asymmetric_variant(variant) ? rl : 0.0;
  assign(job.scenario, spec.name);
  assign(job.topology, with_comm ? label_of(*comm) : std::string_view("-"));
}

EvalJob point_job(const ScenarioSpec& spec, core::ModelVariant variant,
                  double n, const core::AppParams& app,
                  const core::GrowthFunction& growth,
                  const core::GrowthFunction* comm, double r, double rl) {
  EvalJob job = blank_job();
  point_job(job, spec, variant, n, app, growth, comm, r, rl);
  return job;
}

}  // namespace mergescale::explore
