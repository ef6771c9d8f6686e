#include "serve/served_run.hpp"

#include <filesystem>
#include <stdexcept>

#include "search/run_log.hpp"

namespace mergescale::serve {

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
