#include "search/run_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/comm_model.hpp"
#include "explore/memo_cache.hpp"
#include "explore/report.hpp"
#include "noc/topology.hpp"
#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "search/space.hpp"
#include "util/json.hpp"

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

/// Strict double parse of a JSON number token.
std::optional<double> to_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
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

/// Parses "results.shard-<i>.<ext>" file names; returns the shard index
/// or std::nullopt when `name` is not a shard result file of `ext`.
std::optional<std::size_t> shard_index_of(const std::string& name,
                                          std::string_view ext) {
  constexpr std::string_view kPrefix = "results.shard-";
  if (name.size() <= kPrefix.size() + ext.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0 ||
      name.compare(name.size() - ext.size(), ext.size(), ext.data(),
                   ext.size()) != 0) {
    return std::nullopt;
  }
  const char* begin = name.data() + kPrefix.size();
  const char* end = name.data() + name.size() - ext.size();
  std::size_t shard = 0;
  const auto result = std::from_chars(begin, end, shard);
  if (result.ec != std::errc{} || result.ptr != end) return std::nullopt;
  return shard;
}

/// Every shard index with at least one result file under `dir`,
/// ascending — the deterministic file order load() unions shards in.
/// An unlistable directory yields no shards, like the missing files it
/// would contain.
std::vector<std::size_t> shard_indices(const std::string& dir) {
  std::vector<std::size_t> shards;
  std::vector<std::string> names;
  if (!util::io_env().list_dir(dir, &names).ok()) return shards;
  for (const std::string& name : names) {
    std::optional<std::size_t> shard = shard_index_of(name, ".ndjson");
    if (!shard) shard = shard_index_of(name, ".msbin");
    if (shard) shards.push_back(*shard);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

/// Appends every well-formed record of the NDJSON file at `path` (if
/// any) followed by the binary file at `binary_path` (if any).
void load_pair(const std::string& path, const std::string& binary_path,
               std::vector<explore::EvalResult>* records) {
  util::IoEnv& env = util::io_env();
  std::string bytes;
  if (env.read_file(path, &bytes).ok()) {
    std::string_view rest = bytes;
    while (!rest.empty()) {
      const std::size_t newline = rest.find('\n');
      const std::string_view line = rest.substr(0, newline);
      rest = newline == std::string_view::npos ? std::string_view{}
                                               : rest.substr(newline + 1);
      if (auto record = RunLog::parse_result(line)) {
        records->push_back(std::move(*record));
      }
    }
  }
  if (env.exists(binary_path)) {
    auto binary = BinaryLog::load(binary_path);
    records->insert(records->end(), std::make_move_iterator(binary.begin()),
                    std::make_move_iterator(binary.end()));
  }
}

}  // namespace

std::string_view log_format_name(LogFormat format) noexcept {
  switch (format) {
    case LogFormat::kNdjson: return "ndjson";
    case LogFormat::kBinary: return "binary";
  }
  return "unknown";
}

LogFormat parse_log_format(std::string_view name) {
  if (name == "ndjson") return LogFormat::kNdjson;
  if (name == "binary") return LogFormat::kBinary;
  throw std::invalid_argument("unknown log format: " + std::string(name) +
                              " (expected ndjson|binary)");
}

RunLog::RunLog(std::string dir, RunLogOptions options)
    : dir_(std::move(dir)), options_(options), env_(&util::io_env()) {
  if (options_.flush_every == 0) options_.flush_every = 1;
  check_io(env_->create_directories(dir_), "create", dir_);
  const std::string path = append_path();
  if (options_.format == LogFormat::kBinary) {
    binary_ = std::make_unique<BinaryLog>(path, options_.flush_every,
                                          options_.fsync);
  } else {
    // A kill mid-write can leave a torn final line with no newline;
    // without repair, the next append would glue onto the fragment and
    // corrupt a *second* record.  Terminating the fragment keeps it an
    // isolated unparseable line that load() skips.
    bool torn_tail = false;
    std::uint64_t size = 0;
    if (env_->exists(path)) {
      check_io(env_->file_size(path, &size), "stat", path);
    }
    if (size > 0) {
      std::string last;
      check_io(env_->read_file_range(path, size - 1, 1, &last), "read", path);
      torn_tail = last.empty() || last[0] != '\n';
    }
    check_io(env_->new_writable(path, /*truncate=*/false, &out_), "open",
             path);
    if (torn_tail) {
      check_io(out_->append("\n"), "write to", path);
      check_io(out_->flush(), "flush", path);
    }
  }
  if (options_.async) {
    filling_.reserve(options_.flush_every);
    in_flight_.reserve(options_.flush_every);
    writer_ = std::thread([this] { writer_main(); });
  }
}

RunLog::~RunLog() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; an unflushable tail is the documented
    // crash-loss window.
  }
  if (writer_.joinable()) {
    {
      util::MutexLock lock(mutex_);
      stopping_ = true;
    }
    writer_cv_.notify_one();
    writer_.join();
  }
}

std::string RunLog::append_path() const {
  if (options_.shard == kUnsharded) {
    return options_.format == LogFormat::kBinary ? binary_results_path(dir_)
                                                 : results_path(dir_);
  }
  return options_.format == LogFormat::kBinary
             ? shard_binary_results_path(dir_, options_.shard)
             : shard_results_path(dir_, options_.shard);
}

void RunLog::write_group(const std::vector<explore::EvalResult>& group) {
  if (binary_) {
    for (const explore::EvalResult& result : group) {
      binary_->append(result);
    }
    binary_->flush();
    return;
  }
  std::ostringstream text;
  explore::write_ndjson(text, group);
  const std::string path = append_path();
  check_io(out_->append(text.str()), "write to", path);
  check_io(out_->flush(), "flush", path);
  if (options_.fsync) check_io(out_->sync(), "fsync", path);
}

void RunLog::enqueue_group() {
  util::MutexLock lock(mutex_);
  while (in_flight_ready_ && writer_error_ == nullptr) {
    producer_cv_.wait(lock);
  }
  // A writer-side failure is sticky: the writer thread has exited, so
  // handing it more work would block forever.  Every later append/flush
  // resurfaces the same error.
  if (writer_error_ != nullptr) std::rethrow_exception(writer_error_);
  in_flight_.swap(filling_);
  in_flight_ready_ = true;
  filling_.clear();
  lock.unlock();
  writer_cv_.notify_one();
}

void RunLog::writer_main() {
  std::vector<explore::EvalResult> group;
  group.reserve(options_.flush_every);
  for (;;) {
    util::MutexLock lock(mutex_);
    while (!in_flight_ready_ && !stopping_) writer_cv_.wait(lock);
    if (!in_flight_ready_) break;  // stopping, queue drained
    group.swap(in_flight_);
    in_flight_ready_ = false;
    writer_busy_ = true;
    lock.unlock();
    producer_cv_.notify_all();

    std::exception_ptr error;
    try {
      write_group(group);
    } catch (...) {
      error = std::current_exception();
    }
    group.clear();

    lock.lock();
    writer_busy_ = false;
    if (error != nullptr) {
      writer_error_ = error;
      writer_failed_.store(true, std::memory_order_release);
    }
    const bool stop = stopping_ || error != nullptr;
    lock.unlock();
    producer_cv_.notify_all();
    if (stop) break;
  }
}

void RunLog::append(const explore::EvalResult& result) {
  if (options_.async) {
    ++appended_;
    filling_.push_back(result);
    // A failed writer surfaces on the very next append (the relaxed
    // atomic keeps the hot path mutex-free): enqueue_group rethrows
    // the stored error instead of queueing work for a dead thread.
    if (filling_.size() >= options_.flush_every ||
        writer_failed_.load(std::memory_order_relaxed)) {
      enqueue_group();
    }
    return;
  }
  ++appended_;
  if (binary_) {
    binary_->append(result);
    return;
  }
  std::ostringstream line;
  explore::write_ndjson(line, {result});
  buffer_ += line.str();
  if (++buffered_records_ >= options_.flush_every) flush();
}

void RunLog::append(explore::EvalResult&& result) {
  if (options_.async) {
    ++appended_;
    filling_.push_back(std::move(result));
    if (filling_.size() >= options_.flush_every ||
        writer_failed_.load(std::memory_order_relaxed)) {
      enqueue_group();
    }
    return;
  }
  append(result);  // the sync path encodes in place, no copy to save
}

void RunLog::flush() {
  if (options_.async) {
    if (!filling_.empty()) enqueue_group();
    util::MutexLock lock(mutex_);
    while ((in_flight_ready_ || writer_busy_) && writer_error_ == nullptr) {
      producer_cv_.wait(lock);
    }
    if (writer_error_ != nullptr) std::rethrow_exception(writer_error_);
    return;  // the writer flushes the stream after every group
  }
  if (binary_) {
    binary_->flush();
    return;
  }
  // Hand the group off before writing: a failed group is lost (the
  // documented crash window), never silently re-attempted by the
  // destructor after the caller was already told it failed.
  std::string group;
  group.swap(buffer_);
  buffered_records_ = 0;
  const std::string path = append_path();
  if (!group.empty()) {
    check_io(out_->append(group), "write to", path);
    check_io(out_->flush(), "flush", path);
  }
  if (options_.fsync) check_io(out_->sync(), "fsync", path);
}

std::string RunLog::results_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "results.ndjson").string();
}

std::string RunLog::binary_results_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "results.msbin").string();
}

std::string RunLog::shard_results_path(const std::string& dir,
                                       std::size_t shard) {
  return (std::filesystem::path(dir) /
          ("results.shard-" + std::to_string(shard) + ".ndjson"))
      .string();
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
  util::IoEnv& env = util::io_env();
  return env.exists(results_path(dir)) ||
         env.exists(binary_results_path(dir)) ||
         env.exists(archive_path(dir)) || !shard_indices(dir).empty();
}

void RunLog::load_logs(const std::string& dir,
                       std::vector<explore::EvalResult>* records) {
  // The unsharded pair, then every shard's files in ascending shard
  // order — for an exhaustive sharded run (contiguous flat ranges) the
  // union therefore loads in global flat order, which is what makes the
  // merged log record-identical to a single-process recording after
  // first-occurrence dedup.
  load_pair(results_path(dir), binary_results_path(dir), records);
  for (const std::size_t shard : shard_indices(dir)) {
    load_pair(shard_results_path(dir, shard),
              shard_binary_results_path(dir, shard), records);
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
  std::vector<explore::EvalResult> records;
  load_pair(shard_results_path(dir, shard),
            shard_binary_results_path(dir, shard), &records);
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

std::optional<explore::EvalResult> RunLog::parse_result(
    std::string_view line) {
  const auto object = parse_flat_object(line);
  if (!object) return std::nullopt;

  auto text = [&](std::string_view key) -> const std::string* {
    const auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  };
  // Non-finite doubles have no JSON number form; the writer emits `null`
  // for them.  Parse null as 0.0 but remember we saw one: the record
  // loads as infeasible rather than being dropped, so a resumed run
  // still charges it to the warm cache instead of re-spending budget.
  bool saw_null = false;
  auto number = [&](std::string_view key) -> std::optional<double> {
    const std::string* raw = text(key);
    if (raw == nullptr) return std::nullopt;
    if (*raw == "null") {
      saw_null = true;
      return 0.0;
    }
    return to_double(*raw);
  };
  auto boolean = [&](std::string_view key) -> std::optional<bool> {
    const std::string* raw = text(key);
    if (!raw) return std::nullopt;
    if (*raw == "true") return true;
    if (*raw == "false") return false;
    return std::nullopt;
  };

  explore::EvalResult result;
  const auto index = number("index");
  const auto n = number("n");
  const auto r = number("r");
  const auto rl = number("rl");
  const auto cores = number("cores");
  const auto speedup = number("speedup");
  const auto feasible = boolean("feasible");
  const auto cached = boolean("cached");
  const std::string* scenario = text("scenario");
  const std::string* variant = text("variant");
  const std::string* app = text("app");
  const std::string* growth = text("growth");
  const std::string* topology = text("topology");
  if (!index || !n || !r || !rl || !cores || !speedup || !feasible ||
      !cached || !scenario || !variant || !app || !growth || !topology) {
    return std::nullopt;
  }
  try {
    result.variant = core::parse_model_variant(*variant);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  result.index = static_cast<std::size_t>(*index);
  result.scenario = *scenario;
  result.n = *n;
  result.app = *app;
  result.growth = *growth;
  result.topology = *topology;
  result.r = *r;
  result.rl = *rl;
  result.cores = *cores;
  result.feasible = *feasible;
  result.speedup = *speedup;
  result.from_cache = *cached;
  if (saw_null) {
    // A non-finite value means the evaluation produced nothing a model
    // comparison can use; keep the design point (so resume still skips
    // it) but mark it infeasible.
    result.feasible = false;
    result.cores = 0.0;
    result.speedup = 0.0;
  }
  return result;
}

std::size_t RunLog::warm(const std::vector<explore::EvalResult>& records,
                         const explore::ScenarioSpec& spec,
                         explore::ExploreEngine& engine) {
  // Label → axis value maps (labels are how the log names spec entries).
  std::unordered_map<std::string, const core::AppParams*> apps;
  for (const auto& app : spec.apps) apps.emplace(app.name, &app);
  std::unordered_map<std::string, const core::GrowthFunction*> growths;
  for (const auto& growth : spec.growths) growths.emplace(growth.name(), &growth);
  std::unordered_map<std::string, noc::Topology> topologies;
  for (noc::Topology topology : spec.topologies) {
    topologies.emplace(std::string(noc::topology_name(topology)), topology);
  }

  std::size_t warmed = 0;
  for (const auto& record : records) {
    const auto app = apps.find(record.app);
    const auto growth = growths.find(record.growth);
    if (app == apps.end() || growth == growths.end()) continue;

    core::EvalRequest request;
    request.variant = record.variant;
    request.chip = core::ChipConfig{record.n, spec.perf};
    request.app = *app->second;
    request.growth = *growth->second;
    request.r = record.r;
    request.rl = record.rl;
    if (core::is_comm_variant(record.variant)) {
      const auto topology = topologies.find(record.topology);
      if (topology == topologies.end()) continue;
      request.comm_growth = core::comm_growth(topology->second);
      request.comp_share = spec.comp_share;
    }

    explore::EvalOutcome outcome;
    outcome.feasible = record.feasible;
    if (record.feasible) {
      outcome.point = core::DesignPoint{record.r, record.rl, record.speedup};
    }
    // Count *distinct* keys, not records: load() concatenates both log
    // formats, so a directory that holds overlapping files (a format
    // switch on resume, or a kill between compact()'s rename and its
    // cleanup of the other format) yields duplicate records.  Each
    // unique design point was one budget-charged evaluation; counting
    // duplicates would inflate `already_spent` and make a resumed run
    // silently under-spend its budget.  insert() reports newness, so
    // one shard probe both stores the outcome and counts the key.
    if (engine.cache().insert(explore::cache_key(request), outcome)) {
      ++warmed;
    }
  }
  return warmed;
}

namespace {

/// Dedups `records` (first occurrence wins) and atomically rewrites
/// `dir`'s result log in `format`, removing every other result file —
/// the shared tail of compact() and merge().
RunLog::CompactStats dedup_rewrite(
    const std::string& dir, const std::vector<explore::EvalResult>& records,
    LogFormat format, std::size_t flush_every);

}  // namespace

RunLog::CompactStats RunLog::compact(const std::string& dir,
                                     LogFormat format,
                                     std::size_t flush_every) {
  const std::vector<explore::EvalResult> records = load(dir);
  if (records.empty()) {
    // Nothing recorded (no result files, or only empty / header-only
    // ones): compacting is a no-op, not an error — rewriting would only
    // fabricate result files in a directory that holds no results.
    return CompactStats{};
  }
  return dedup_rewrite(dir, records, format, flush_every);
}

namespace {

RunLog::CompactStats dedup_rewrite(
    const std::string& dir, const std::vector<explore::EvalResult>& records,
    LogFormat format, std::size_t flush_every) {
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
  // way out of a failed rewrite so no later load can see it.
  util::IoEnv& env = util::io_env();
  check_io(env.create_directories(dir), "create", dir);
  const std::string tmp =
      (std::filesystem::path(dir) / ".compact.tmp").string();
  check_io(env.remove_file(tmp), "remove", tmp);
  try {
    if (format == LogFormat::kBinary) {
      BinaryLog log(tmp, flush_every);
      for (const explore::EvalResult* record : kept) log.append(*record);
      log.flush();
      log.sync();
    } else {
      std::unique_ptr<util::WritableFile> out;
      check_io(env.new_writable(tmp, /*truncate=*/true, &out), "open", tmp);
      std::ostringstream text;
      for (const explore::EvalResult* record : kept) {
        explore::write_ndjson(text, {*record});
      }
      check_io(out->append(text.str()), "write to", tmp);
      check_io(out->flush(), "flush", tmp);
      // Sync before the rename below: renaming a file whose bytes could
      // still vanish in a power loss would replace good records with a
      // hole.
      check_io(out->sync(), "fsync", tmp);
      check_io(out->close(), "close", tmp);
    }
  } catch (...) {
    static_cast<void>(env.remove_file(tmp));
    throw;
  }
  const std::string target = format == LogFormat::kBinary
                                 ? RunLog::binary_results_path(dir)
                                 : RunLog::results_path(dir);
  check_io(env.rename_file(tmp, target), "rename", tmp);
  // Exactly one result file must survive (load() reads every one), so a
  // cross-format compaction is also the migration path and compacting a
  // sharded directory is the shard-union merge.
  const std::string other = format == LogFormat::kBinary
                                ? RunLog::results_path(dir)
                                : RunLog::binary_results_path(dir);
  check_io(env.remove_file(other), "remove", other);
  for (const std::size_t shard : shard_indices(dir)) {
    check_io(env.remove_file(RunLog::shard_results_path(dir, shard)),
             "remove", RunLog::shard_results_path(dir, shard));
    check_io(env.remove_file(RunLog::shard_binary_results_path(dir, shard)),
             "remove", RunLog::shard_binary_results_path(dir, shard));
  }
  return stats;
}

}  // namespace

RunLog::MergeStats RunLog::merge(const std::string& target,
                                 const std::vector<std::string>& sources,
                                 LogFormat format, std::size_t flush_every,
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
        dedup_rewrite(target, records, format, flush_every);
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
             strip_shard_token ? strip_shard_config(*config) : *config);
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
