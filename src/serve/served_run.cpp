#include "serve/served_run.hpp"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/app_params.hpp"
#include "noc/topology.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"

namespace mergescale::serve {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::runtime_error("run config: " + what +
                             " expects a number, got '" + text + "'");
  }
  return value;
}

std::vector<double> parse_doubles(const std::string& text,
                                  const std::string& what) {
  std::vector<double> values;
  for (const auto& token : split(text, ',')) {
    values.push_back(parse_double(token, what));
  }
  return values;
}

}  // namespace

explore::ScenarioSpec spec_from_run_config(const std::string& config) {
  // Two passes: custom apps need f/fcon/fored, which may appear after
  // the apps token, so collect every key first.
  std::map<std::string, std::string> keys;
  for (const auto& token : split(config, ';')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("run config: malformed token '" + token + "'");
    }
    keys[token.substr(0, eq)] = token.substr(eq + 1);
  }
  auto require = [&keys, &config](const std::string& key) -> const std::string& {
    const auto it = keys.find(key);
    if (it == keys.end()) {
      throw std::runtime_error("run config: missing '" + key + "=' in '" +
                               config + "'");
    }
    return it->second;
  };

  explore::ScenarioSpec spec;
  spec.name = "serve";
  spec.chip_budgets = parse_doubles(require("budgets"), "budgets");
  for (const auto& name : split(require("apps"), ',')) {
    if (name == "kmeans") {
      spec.apps.push_back(core::presets::kmeans());
    } else if (name == "fuzzy") {
      spec.apps.push_back(core::presets::fuzzy());
    } else if (name == "hop") {
      spec.apps.push_back(core::presets::hop());
    } else if (name == "custom") {
      core::AppParams app{"custom", parse_double(require("f"), "f"),
                          parse_double(require("fcon"), "fcon"),
                          parse_double(require("fored"), "fored")};
      app.validate();
      spec.apps.push_back(app);
    } else {
      throw std::runtime_error("run config: unknown app '" + name + "'");
    }
  }
  spec.growths.clear();
  for (const auto& name : split(require("growths"), ',')) {
    if (name == "linear") {
      spec.growths.push_back(core::GrowthFunction::linear());
    } else if (name == "log") {
      spec.growths.push_back(core::GrowthFunction::logarithmic());
    } else if (name == "parallel") {
      spec.growths.push_back(core::GrowthFunction::parallel());
    } else {
      throw std::runtime_error("run config: unknown growth '" + name + "'");
    }
  }
  spec.variants.clear();
  for (const auto& name : split(require("variants"), ',')) {
    spec.variants.push_back(core::parse_model_variant(name));
  }
  spec.topologies.clear();
  for (const auto& name : split(require("topologies"), ',')) {
    spec.topologies.push_back(noc::parse_topology(name));
  }
  spec.small_core_sizes =
      parse_doubles(require("small-cores"), "small-cores");
  // sizes= may legitimately be empty: the spec default (powers of two
  // per budget).  split() drops the empty token, so probe the key map.
  if (const auto it = keys.find("sizes"); it != keys.end()) {
    spec.sizes = parse_doubles(it->second, "sizes");
  }
  spec.comp_share = parse_double(require("comp-share"), "comp-share");
  spec.validate();
  return spec;
}

ServedRun open_served_run(const std::string& dir,
                          const std::vector<std::string>& sources) {
  // Configs compare modulo the shard token: a read-only union of a
  // sharded run with its compacted (token-stripped) form is harmless —
  // nothing resumes against the served union, so the token's
  // mis-charging hazard does not apply.
  const auto config_of = [](const std::string& member) {
    const auto meta = search::RunLog::read_meta(member);
    if (!meta) {
      throw std::runtime_error(
          "load: " + member +
          " holds no meta.json — was it recorded with --run-dir?");
    }
    return search::strip_shard_config(*meta);
  };
  ServedRun run{dir, config_of(dir), {}};
  for (const std::string& source : sources) {
    const std::string config = config_of(source);
    if (config != run.config) {
      throw std::runtime_error(
          "load: " + source +
          " was recorded under a different configuration (" + config +
          " vs " + run.config + "); refusing to union mismatched runs");
    }
  }
  run.spec = spec_from_run_config(run.config);
  return run;
}

ServedRecords open_served_records(const std::string& dir,
                                  const std::vector<std::string>& sources) {
  std::vector<explore::EvalResult> decoded;
  search::RunLog::load_logs(dir, &decoded);
  for (const std::string& source : sources) {
    std::error_code ec;
    if (source == dir || std::filesystem::equivalent(source, dir, ec)) {
      continue;  // the target's own records are already in
    }
    std::vector<explore::EvalResult> foreign = search::RunLog::load(source);
    decoded.insert(decoded.end(), std::make_move_iterator(foreign.begin()),
                   std::make_move_iterator(foreign.end()));
  }
  if (!search::RunLog::has_archive(dir)) {
    return {search::ArchiveReader::from_records(
                search::RunLog::dedup(std::move(decoded))),
            {}};
  }
  // The archive loads first in the union, so first-occurrence dedup
  // keeps its row for any point it shares with the decoded records.
  ServedRecords records{
      search::ArchiveReader::open(search::RunLog::archive_path(dir)), {}};
  std::erase_if(decoded, [&records](const explore::EvalResult& record) {
    return records.archive.find(search::DesignKey::of(record)).has_value();
  });
  records.delta = search::RunLog::dedup(std::move(decoded));
  return records;
}

}  // namespace mergescale::serve
