#include "serve/served_run.hpp"

#include <filesystem>
#include <stdexcept>

#include "search/run_log.hpp"

namespace mergescale::serve {

ServedRun open_served_run(const std::string& dir,
                          const std::vector<std::string>& sources) {
  // Configs compare modulo the shard token: a read-only union of a
  // sharded run with its folded (token-stripped) form is harmless —
  // nothing resumes against the served union, so the token's
  // mis-charging hazard does not apply.
  const auto config_of = [](const std::string& member) {
    const auto meta = search::RunLog::read_meta(member);
    if (!meta) {
      throw std::runtime_error(
          "load: " + member +
          " holds no meta.json — was it recorded with --run-dir?");
    }
    return explore::strip_shard_config(*meta);
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
  run.spec = explore::from_config(run.config, "serve");
  return run;
}

ServedArchive::ServedArchive(search::ArchiveReader reader,
                             const explore::ScenarioSpec& spec)
    : reader_(std::move(reader)), space_(spec) {
  search::ArchivePredicate past_grid;
  past_grid.min_index = space_.size();
  past_grid.feasible_only = false;
  past_grid_ = reader_.query(past_grid);
  for (const explore::EvalResult& row : past_grid_) {
    past_grid_keys_.emplace(search::DesignKey::of(row), &row);
  }
}

std::optional<explore::EvalResult> ServedArchive::find(
    const search::DesignKey& key) const {
  // Rows sit in index order and a grid point's canonical index is below
  // every past-grid index, so its row there comes first.
  if (const std::optional<std::uint64_t> flat = space_.index_of(key)) {
    if (auto row = reader_.find(*flat, key)) return row;
  }
  const auto it = past_grid_keys_.find(key);
  if (it == past_grid_keys_.end()) return std::nullopt;
  return *it->second;
}

ServedRecords open_served_records(const ServedRun& run,
                                  const std::vector<std::string>& sources) {
  std::vector<explore::EvalResult> decoded;
  search::RunLog::load_logs(run.dir, &decoded);
  for (const std::string& source : sources) {
    std::error_code ec;
    if (source == run.dir || std::filesystem::equivalent(source, run.dir, ec)) {
      continue;  // the target's own records are already in
    }
    std::vector<explore::EvalResult> foreign = search::RunLog::load(source);
    decoded.insert(decoded.end(), std::make_move_iterator(foreign.begin()),
                   std::make_move_iterator(foreign.end()));
  }
  if (!search::RunLog::has_archive(run.dir)) {
    return {ServedArchive(search::ArchiveReader::from_records(
                              search::RunLog::dedup(std::move(decoded))),
                          run.spec),
            {}};
  }
  // The archive loads first in the union, so first-occurrence dedup
  // keeps its row for any point it shares with the decoded records.
  ServedRecords records{
      ServedArchive(
          search::ArchiveReader::open(search::RunLog::archive_path(run.dir)),
          run.spec),
      {}};
  std::erase_if(decoded, [&records](const explore::EvalResult& record) {
    return records.archive.find(search::DesignKey::of(record)).has_value();
  });
  records.delta = search::RunLog::dedup(std::move(decoded));
  return records;
}

}  // namespace mergescale::serve
