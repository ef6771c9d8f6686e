#include "search/run_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <filesystem>
#include <stdexcept>

#include "explore/memo_cache.hpp"
#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "search/ndjson.hpp"
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

/// keep[i] is set when records[i] is the first record of its design
/// point — the rule dedup(), compact() and merge() share.  An
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

/// The entry names of `dir`; none when it cannot be listed (a missing
/// directory holds no results).  Throws when one is a result log of the
/// retired NDJSON format (results.ndjson, results.shard-<i>.ndjson):
/// skipping it would make a resume recompute every record it holds.
std::vector<std::string> result_dir_names(const std::string& dir) {
  std::vector<std::string> names;
  if (!util::io_env().list_dir(dir, &names).ok()) return {};
  for (const std::string& name : names) {
    if (name.starts_with("results.") && name.ends_with(".ndjson")) {
      throw std::runtime_error(
          "run log: " + (std::filesystem::path(dir) / name).string() +
          " is an NDJSON run log, a format this build no longer reads; "
          "convert it with an older build's `explore_cli --compact "
          "--log-format binary` or re-record the run");
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

void RunLog::load_logs(const std::string& dir,
                       std::vector<explore::EvalResult>* records) {
  // The unsharded log, then every shard's log in ascending shard order —
  // for an exhaustive sharded run (contiguous flat ranges) the union
  // therefore loads in global flat order, which is what makes the
  // merged log record-identical to a single-process recording after
  // first-occurrence dedup.
  const std::vector<std::size_t> shards = shard_indices(result_dir_names(dir));
  load_file(binary_results_path(dir), records);
  for (const std::size_t shard : shards) {
    load_file(shard_binary_results_path(dir, shard), records);
  }
}

std::vector<explore::EvalResult> RunLog::load(const std::string& dir) {
  std::vector<explore::EvalResult> records;
  // Archived records first: the archive is the compacted prefix of the
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

std::vector<explore::EvalResult> RunLog::load_range(const std::string& dir,
                                                    std::size_t begin,
                                                    std::size_t end) {
  std::vector<explore::EvalResult> records;
  if (begin >= end) return records;
  if (has_archive(dir)) {
    records = ArchiveReader::open(archive_path(dir))
                  .load_index_range(begin, end);
  }
  std::vector<explore::EvalResult> logged;
  load_logs(dir, &logged);
  for (auto& record : logged) {
    if (record.index >= begin && record.index < end) {
      records.push_back(std::move(record));
    }
  }
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
    // Count *distinct* keys, not records: load() concatenates the
    // archive, the unsharded log and every shard log, so a directory can
    // yield duplicate records (live evals after an archive, a kill
    // between compact()'s rename and its shard cleanup).  Each unique
    // design point was one budget-charged evaluation; counting
    // duplicates would inflate `already_spent` and make a resumed run
    // silently under-spend its budget.  insert() reports newness, so
    // one shard probe both stores the outcome and counts the key.
    if (engine.cache().insert(explore::cache_key(job.request), outcome)) {
      ++warmed;
    }
  }
  return warmed;
}

namespace {

/// Dedups `records` (first occurrence wins) and atomically rewrites
/// `dir`'s result log, removing every shard log — the shared tail of
/// compact() and merge().
RunLog::CompactStats dedup_rewrite(
    const std::string& dir, const std::vector<explore::EvalResult>& records,
    std::size_t flush_every) {
  RunLog::CompactStats stats;
  stats.loaded = records.size();

  const std::vector<std::uint8_t> keep = first_occurrences(records);
  std::vector<const explore::EvalResult*> kept;
  kept.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (keep[i]) kept.push_back(&records[i]);
  }
  stats.kept = kept.size();

  // Write the survivors to a temp file, then rename over the target: a
  // kill (or an injected I/O failure) mid-compaction leaves the
  // original log untouched, and the partial temp file is removed on the
  // way out of a failed rewrite so no later load can see it.  The temp
  // file is fsynced before the rename: renaming a file whose bytes
  // could still vanish in a power loss would replace good records with
  // a hole.
  util::IoEnv& env = util::io_env();
  check_io(env.create_directories(dir), "create", dir);
  const std::string tmp =
      (std::filesystem::path(dir) / ".compact.tmp").string();
  check_io(env.remove_file(tmp), "remove", tmp);
  try {
    BinaryLog log(tmp, flush_every);
    for (const explore::EvalResult* record : kept) log.append(*record);
    log.flush();
    log.sync();
  } catch (...) {
    static_cast<void>(env.remove_file(tmp));
    throw;
  }
  check_io(env.rename_file(tmp, RunLog::binary_results_path(dir)), "rename",
           tmp);
  // Exactly one result file must survive (load() reads every one), so
  // compacting a sharded directory is the shard-union merge.
  for (const std::size_t shard : shard_indices(result_dir_names(dir))) {
    const std::string path = RunLog::shard_binary_results_path(dir, shard);
    check_io(env.remove_file(path), "remove", path);
  }
  return stats;
}

}  // namespace

RunLog::CompactStats RunLog::compact(const std::string& dir,
                                     std::size_t flush_every) {
  const std::vector<explore::EvalResult> records = load(dir);
  if (records.empty()) {
    // Nothing recorded (no result files, or only empty / header-only
    // ones): compacting is a no-op, not an error — rewriting would only
    // fabricate result files in a directory that holds no results.
    return CompactStats{};
  }
  return dedup_rewrite(dir, records, flush_every);
}

RunLog::MergeStats RunLog::merge(const std::string& target,
                                 const std::vector<std::string>& sources,
                                 std::size_t flush_every,
                                 bool strip_shard_token) {
  // Refuse mismatched shards up front: every participating directory
  // must have been recorded, and under one identical configuration.
  // Unioning a shard of a different space/strategy/shard-count would
  // silently poison every later resume of the merged log.
  std::optional<std::string> config = read_meta(target);
  auto require_match = [&config](const std::string& dir) {
    const auto meta = read_meta(dir);
    if (!meta) {
      throw std::runtime_error(
          "merge: " + dir +
          " holds no meta.json — was it recorded with --run-dir?");
    }
    if (config && *meta != *config) {
      throw std::runtime_error("merge: " + dir +
                               " was recorded under a different "
                               "configuration (" +
                               *meta + " vs " + *config + "); refusing to "
                               "union mismatched shards");
    }
    config = *meta;
  };
  MergeStats stats;
  for (const std::string& source : sources) {
    require_match(source);
    ++stats.sources;
  }
  if (!config) {
    throw std::runtime_error("merge: " + target +
                             " holds no meta.json and no sources were "
                             "given — nothing to merge");
  }

  // Union in deterministic order — the target's own records (unsharded
  // file first, then shards ascending) followed by each source in the
  // order given — then dedup-rewrite the whole set into one file.  For
  // contiguous exhaustive shards that order is the global flat order,
  // which is what makes the merged log record-identical to a
  // single-process recording.
  std::vector<explore::EvalResult> records = load(target);
  for (const std::string& source : sources) {
    std::error_code ec;
    if (source == target ||
        std::filesystem::equivalent(source, target, ec)) {
      continue;  // the target's own records are already loaded
    }
    std::vector<explore::EvalResult> foreign = load(source);
    records.insert(records.end(), std::make_move_iterator(foreign.begin()),
                   std::make_move_iterator(foreign.end()));
  }
  if (!records.empty()) {
    const CompactStats compacted =
        dedup_rewrite(target, records, flush_every);
    stats.loaded = compacted.loaded;
    stats.kept = compacted.kept;
  }
  // The merged directory now holds one log covering the whole union.
  // For exhaustive recordings the caller strips the shard token so the
  // directory verifies — and resumes — as the equivalent
  // single-process run; adaptive unions keep it, so a single-process
  // resume (which would mis-charge the union against one seed's
  // trajectory) is refused rather than silently wrong.
  write_meta(target,
             strip_shard_token ? explore::strip_shard_config(*config)
                               : *config);
  return stats;
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
  const std::string line = bytes.substr(0, bytes.find('\n'));
  const auto object = parse_flat_object(line);
  if (!object || object->find("config") == object->end()) {
    throw std::runtime_error("run log: " + meta_path(dir) +
                             " is corrupt (not a {\"config\":...} record); "
                             "delete the run directory to start over");
  }
  return object->find("config")->second;
}

}  // namespace mergescale::search
