#include "serve/served_run.hpp"

#include <stdexcept>
#include <utility>

#include "search/run_log.hpp"

namespace mergescale::serve {

ServedArchive::ServedArchive(search::ArchiveReader reader,
                             const explore::ScenarioSpec& spec)
    : reader_(std::move(reader)),
      space_(spec),
      past_grid_(reader_.load_all(space_.size())) {
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

ServedRun open_served_run(const std::string& dir) {
  const auto meta = search::RunLog::read_meta(dir);
  if (!meta) {
    throw std::runtime_error(
        "load: " + dir + " holds no meta.json — was it recorded with "
        "--run-dir?");
  }
  std::string config = explore::strip_shard_config(*meta);
  explore::ScenarioSpec spec = explore::from_config(config, "serve");
  std::vector<explore::EvalResult> decoded;
  search::RunLog::load_logs(dir, &decoded);
  // Without archive.msca the decoded logs become the archive, leaving
  // nothing for the delta.
  ServedArchive archive(
      search::RunLog::has_archive(dir)
          ? search::ArchiveReader::open(search::RunLog::archive_path(dir))
          : search::ArchiveReader::from_records(
                search::RunLog::dedup(std::exchange(decoded, {}))),
      spec);
  // The archive holds the folded history, so its row wins over any
  // logged record of the same design point.
  std::erase_if(decoded, [&archive](const explore::EvalResult& record) {
    return archive.find(search::DesignKey::of(record)).has_value();
  });
  return {dir, std::move(config), std::move(spec), std::move(archive),
          search::RunLog::dedup(std::move(decoded))};
}

}  // namespace mergescale::serve
