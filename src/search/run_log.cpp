#include "search/run_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "explore/memo_cache.hpp"
#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "util/format.hpp"
#include "util/io_env.hpp"

namespace mergescale::search {

namespace {

/// Throws the run-log flavored error for a failed env operation.
void check_io(const util::IoResult& result, const char* what,
              const std::string& path) {
  if (!result.ok()) {
    throw std::runtime_error("run log: " + std::string(what) + " " + path +
                             " failed: " + result.message);
  }
}

/// The config of meta.json's one record, `{"config":"..."}` as
/// write_meta writes it, with util::json_escape inverted (\", \\ and
/// \u00xx).  std::nullopt for anything else — a torn line, another
/// object, an escape json_escape never writes.
std::optional<std::string> parse_meta_record(std::string_view line) {
  constexpr std::string_view kHead = "{\"config\":\"";
  constexpr std::string_view kTail = "\"}";
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.size() < kHead.size() + kTail.size() || !line.starts_with(kHead) ||
      !line.ends_with(kTail)) {
    return std::nullopt;
  }
  const std::string_view body = line.substr(
      kHead.size(), line.size() - kHead.size() - kTail.size());
  std::string config;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '"') return std::nullopt;  // the string ended early
    if (body[i] != '\\') {
      config.push_back(body[i]);
      continue;
    }
    if (++i == body.size()) return std::nullopt;
    if (body[i] == '"' || body[i] == '\\') {
      config.push_back(body[i]);
      continue;
    }
    unsigned byte = 0;
    const char* hex = body.data() + i + 1;
    if (body[i] != 'u' || body.size() - i < 5 ||
        std::from_chars(hex, hex + 4, byte, 16).ptr != hex + 4 ||
        byte >= 0x80) {
      return std::nullopt;
    }
    config.push_back(static_cast<char>(byte));
    i += 4;
  }
  return config;
}

/// keep[i] is set when records[i] is the first record of its design
/// point — the rule dedup() applies.  An
/// open-addressing table of record positions rather than a node set:
/// on a million-record archive build it is ~4x faster.
std::vector<std::uint8_t> first_occurrences(
    const std::vector<explore::EvalResult>& records) {
  const std::size_t mask =
      std::bit_ceil(std::max<std::size_t>(16, records.size() * 2)) - 1;
  std::vector<std::size_t> slots(mask + 1, 0);  // record position + 1
  std::vector<std::uint8_t> keep(records.size(), 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DesignKey key = DesignKey::of(records[i]);
    for (std::size_t s = DesignKeyHash{}(key) & mask;; s = (s + 1) & mask) {
      if (slots[s] == 0) {
        slots[s] = i + 1;
        keep[i] = 1;
        break;
      }
      if (DesignKey::of(records[slots[s] - 1]) == key) break;
    }
  }
  return keep;
}

/// The entry names of `dir`; none when it is missing.  A directory that
/// cannot be listed also yields none, unless `must_list` makes that
/// throw.  Throws when one is a result log of the retired NDJSON format
/// (results.ndjson, results.shard-<i>.ndjson): skipping it would make a
/// resume recompute every record it holds.
std::vector<std::string> result_dir_names(const std::string& dir,
                                          bool must_list = false) {
  std::vector<std::string> names;
  const util::IoResult listed = util::io_env().list_dir(dir, &names);
  if (!listed.ok()) {
    if (must_list) check_io(listed, "list", dir);
    return {};
  }
  for (const std::string& name : names) {
    if (name.starts_with("results.") && name.ends_with(".ndjson")) {
      throw std::runtime_error(
          "run log: " + (std::filesystem::path(dir) / name).string() +
          " is an NDJSON run log, a format this build no longer reads; "
          "re-record the run, or convert it to results.msbin with an "
          "older build");
    }
  }
  return names;
}

/// Every shard index with a result log among `names`, ascending — the
/// deterministic file order load() unions shards in.
std::vector<std::size_t> shard_indices(const std::vector<std::string>& names) {
  constexpr std::string_view kPrefix = "results.shard-";
  constexpr std::string_view kExt = ".msbin";
  std::vector<std::size_t> shards;
  for (const std::string& name : names) {
    if (name.size() <= kPrefix.size() + kExt.size() ||
        !name.starts_with(kPrefix) || !name.ends_with(kExt)) {
      continue;
    }
    const char* begin = name.data() + kPrefix.size();
    const char* end = name.data() + name.size() - kExt.size();
    std::size_t shard = 0;
    const auto parsed = std::from_chars(begin, end, shard);
    if (parsed.ec == std::errc{} && parsed.ptr == end) shards.push_back(shard);
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

/// Appends every readable record of the binary log at `path` (if any).
void load_file(const std::string& path,
               std::vector<explore::EvalResult>* records) {
  std::vector<explore::EvalResult> loaded = BinaryLog::load(path);
  records->insert(records->end(), std::make_move_iterator(loaded.begin()),
                  std::make_move_iterator(loaded.end()));
}

/// Creates `dir`, refuses a retired NDJSON log in it, and returns the
/// result file a log with `options` appends to.
std::string prepare_append(const std::string& dir,
                           const RunLogOptions& options) {
  check_io(util::io_env().create_directories(dir), "create", dir);
  result_dir_names(dir);  // refuses a retired NDJSON log
  return options.shard == kUnsharded
             ? RunLog::binary_results_path(dir)
             : RunLog::shard_binary_results_path(dir, options.shard);
}

}  // namespace

LogFormat parse_log_format(std::string_view name) {
  if (name == "binary") return LogFormat::kBinary;
  if (name == "ndjson") {
    throw std::invalid_argument(
        "the NDJSON run log was removed; run logs are binary (results.msbin) "
        "only — `explore_cli --dump --run-dir <dir>` prints a run's records "
        "as NDJSON");
  }
  throw std::invalid_argument("unknown log format: " + std::string(name) +
                              " (expected binary)");
}

RunLog::RunLog(const std::string& dir, RunLogOptions options)
    : log_(prepare_append(dir, options), options.flush_every, options.fsync) {}

std::string RunLog::binary_results_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "results.msbin").string();
}

std::string RunLog::shard_binary_results_path(const std::string& dir,
                                              std::size_t shard) {
  return (std::filesystem::path(dir) /
          ("results.shard-" + std::to_string(shard) + ".msbin"))
      .string();
}

std::string RunLog::meta_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "meta.json").string();
}

std::string RunLog::archive_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "archive.msca").string();
}

bool RunLog::has_archive(const std::string& dir) {
  return util::io_env().exists(archive_path(dir));
}

bool RunLog::has_results(const std::string& dir) {
  const std::vector<std::string> names = result_dir_names(dir);
  return util::io_env().exists(binary_results_path(dir)) ||
         has_archive(dir) || !shard_indices(names).empty();
}

std::vector<std::string> RunLog::result_logs(const std::string& dir) {
  const std::vector<std::string> names =
      result_dir_names(dir, /*must_list=*/true);
  std::vector<std::string> logs;
  if (std::find(names.begin(), names.end(), "results.msbin") != names.end()) {
    logs.push_back(binary_results_path(dir));
  }
  for (const std::size_t shard : shard_indices(names)) {
    logs.push_back(shard_binary_results_path(dir, shard));
  }
  return logs;
}

ArchiveStats RunLog::archive(const std::string& dir,
                             const std::vector<explore::EvalResult>& records,
                             runtime::ThreadTeam* team) {
  util::IoEnv& env = util::io_env();
  check_io(env.create_directories(dir), "create", dir);
  const ArchiveStats stats = write_archive(
      archive_path(dir), records, kDefaultArchiveBlockRows, team);
  // The archive now holds every record the logs did, so the logs come
  // off disk; meta.json stays, it still fingerprints the configuration a
  // resume verifies.
  for (const std::string& path : result_logs(dir)) {
    check_io(env.remove_file(path), "remove", path);
  }
  return stats;
}

std::optional<ArchiveStats> RunLog::fold(
    const std::string& dir, const std::vector<std::string>& sources,
    runtime::ThreadTeam* team) {
  // Refuse before reading a record: unioning a member recorded under
  // another space, strategy or shard count would poison every later
  // resume of the archive.
  const std::optional<std::string> own_meta = read_meta(dir);
  std::optional<std::string> config = own_meta;
  for (const std::string& source : sources) {
    const auto meta = read_meta(source);
    if (!meta) {
      throw std::runtime_error(
          "fold: " + source +
          " holds no meta.json — was it recorded with --run-dir?");
    }
    if (config && *meta != *config) {
      throw std::runtime_error(
          "fold: " + source + " was recorded under a different "
          "configuration (" + *meta + " vs " + *config +
          "); refusing to union mismatched runs");
    }
    config = meta;
  }
  if (!config) {
    throw std::runtime_error("fold: " + dir +
                             " holds no meta.json and no sources were "
                             "given — nothing recorded to fold");
  }
  if (explore::config_token(*config, "shards") &&
      explore::config_token(*config, "strategy") != "exhaustive") {
    throw std::runtime_error(
        "fold: " + dir + " is an adaptive sharded run: each shard resumes "
        "its own trajectory from its own log, which one archive cannot "
        "stand in for");
  }

  std::optional<ArchiveStats> stats;
  if (sources.empty() && result_logs(dir).empty() && has_archive(dir)) {
    const ArchiveReader reader = ArchiveReader::open(archive_path(dir));
    reader.verify();
    stats = reader.stats();
  } else {
    // The directory's own records (archive, unsharded log, shards in
    // order) then each source's: for contiguous exhaustive shards that
    // is global flat order, so first-occurrence dedup keeps what a
    // single process would have recorded.
    std::vector<explore::EvalResult> records = load(dir);
    for (const std::string& source : sources) {
      std::error_code ec;
      if (source == dir || std::filesystem::equivalent(source, dir, ec)) {
        continue;
      }
      std::vector<explore::EvalResult> foreign = load(source);
      records.insert(records.end(), std::make_move_iterator(foreign.begin()),
                     std::make_move_iterator(foreign.end()));
    }
    records = dedup(std::move(records));
    if (records.empty()) return std::nullopt;
    stats = archive(dir, records, team);
  }
  // Also on the check-only path, so a retry after a crash between the
  // archive and this write (or an archive an older build left with its
  // token) still ends single-process.
  const std::string folded = explore::strip_shard_config(*config);
  if (own_meta != folded) write_meta(dir, folded);
  return stats;
}

void RunLog::load_logs(const std::string& dir,
                       std::vector<explore::EvalResult>* records) {
  // The unsharded log, then every shard's log in ascending shard order —
  // for an exhaustive sharded run (contiguous flat ranges) the union
  // therefore loads in global flat order, which is what makes the
  // folded union record-identical to a single-process recording after
  // first-occurrence dedup.
  const std::vector<std::size_t> shards = shard_indices(result_dir_names(dir));
  load_file(binary_results_path(dir), records);
  for (const std::size_t shard : shards) {
    load_file(shard_binary_results_path(dir, shard), records);
  }
}

std::vector<explore::EvalResult> RunLog::load(const std::string& dir) {
  std::vector<explore::EvalResult> records;
  // Archived records first: the archive is the folded prefix of the
  // directory's history (index-ascending), and any result logs written
  // after archiving append behind it — so first-occurrence dedup keeps
  // the archive's record for any design point both hold.  A corrupt
  // archive throws rather than silently serving a partial union.
  if (has_archive(dir)) {
    records = ArchiveReader::open(archive_path(dir)).load_all();
  }
  load_logs(dir, &records);
  return records;
}

std::vector<explore::EvalResult> RunLog::load_shard(const std::string& dir,
                                                    std::size_t shard) {
  result_dir_names(dir);  // refuses a retired NDJSON log
  std::vector<explore::EvalResult> records;
  load_file(shard_binary_results_path(dir, shard), &records);
  return records;
}

std::vector<explore::EvalResult> RunLog::dedup(
    std::vector<explore::EvalResult> records) {
  const std::vector<std::uint8_t> keep = first_occurrences(records);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) records[kept] = std::move(records[i]);
    ++kept;
  }
  records.resize(kept);
  return records;
}

std::size_t RunLog::warm(const std::vector<explore::EvalResult>& records,
                         const explore::ScenarioSpec& spec,
                         explore::ExploreEngine& engine) {
  const std::vector<core::GrowthFunction> comms = explore::comm_laws(spec);
  std::size_t warmed = 0;
  for (const auto& record : records) {
    // Labels are how the log names spec entries.
    const core::AppParams* app = explore::find_label(spec.apps, record.app);
    const core::GrowthFunction* growth =
        explore::find_label(spec.growths, record.growth);
    if (app == nullptr || growth == nullptr) continue;
    const core::GrowthFunction* comm = nullptr;
    if (core::is_comm_variant(record.variant)) {
      comm = explore::find_label(comms, record.topology);
      if (comm == nullptr) continue;
    }
    const explore::EvalJob job = explore::point_job(
        spec, record.variant, record.n, *app, *growth, comm, record.r,
        record.rl);

    explore::EvalOutcome outcome;
    outcome.feasible = record.feasible;
    if (record.feasible) {
      outcome.point = core::DesignPoint{record.r, record.rl, record.speedup};
    }
    // Count distinct keys, not records: load() can yield duplicates
    // (live evals after an archive, a kill mid-fold).
    if (engine.cache().insert(explore::cache_key(job.request), outcome)) {
      ++warmed;
    }
  }
  return warmed;
}

void RunLog::write_meta(const std::string& dir, const std::string& config) {
  util::IoEnv& env = util::io_env();
  check_io(env.create_directories(dir), "create", dir);
  const std::string path = meta_path(dir);
  // Write-then-rename: meta.json is what makes a run directory
  // resumable at all, so it must never exist in a torn state.  The
  // pid-qualified temp name keeps concurrently starting shard processes
  // (all recording the identical shared config) from clobbering each
  // other's half-written temp files; the write is fsynced before the
  // atomic rename, so whichever write lands last simply replaces equal
  // bytes and a power loss can never leave a renamed-but-empty record.
  const std::string tmp =
      (std::filesystem::path(dir) /
       (".meta." + std::to_string(::getpid()) + ".tmp"))
          .string();
  std::unique_ptr<util::WritableFile> out;
  check_io(env.new_writable(tmp, /*truncate=*/true, &out), "open", tmp);
  // Any failure from here surfaces as an error (with the temp file
  // removed) instead of later as a silently unresumable directory.
  util::IoResult result =
      out->append("{\"config\":\"" + util::json_escape(config) + "\"}\n");
  if (result.ok()) result = out->flush();
  if (result.ok()) result = out->sync();
  if (result.ok()) result = out->close();
  if (!result.ok()) {
    static_cast<void>(env.remove_file(tmp));
    throw std::runtime_error("run log: failed to write " + tmp + ": " +
                             result.message);
  }
  check_io(env.rename_file(tmp, path), "rename", tmp);
}

std::optional<std::string> RunLog::read_meta(const std::string& dir) {
  std::string bytes;
  const util::IoResult read = util::io_env().read_file(meta_path(dir), &bytes);
  if (read.not_found) {
    return std::nullopt;  // missing: the directory was never recorded
  }
  check_io(read, "read", meta_path(dir));
  // The file exists, so anything unreadable past this point is corruption
  // (e.g. a crash truncated the write) and deserves a loud error —
  // treating it as "missing" would let a fresh run silently overwrite a
  // directory that does hold recorded results.
  if (bytes.empty()) {
    throw std::runtime_error("run log: " + meta_path(dir) +
                             " is empty — truncated by a crash? Delete the "
                             "run directory to start over");
  }
  std::optional<std::string> config =
      parse_meta_record(std::string_view(bytes).substr(0, bytes.find('\n')));
  if (!config) {
    throw std::runtime_error("run log: " + meta_path(dir) +
                             " is corrupt (not a {\"config\":...} record); "
                             "delete the run directory to start over");
  }
  return config;
}

}  // namespace mergescale::search
