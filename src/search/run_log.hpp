#pragma once
// Disk persistence for exploration runs: an append-only result log plus
// a small meta record, both under one run directory.
//
//   <dir>/results.msbin    one CRC-framed fixed-width record per *fresh*
//                          evaluation (search/binary_log), ~75 B/point
//   <dir>/meta.json        the run configuration fingerprint, used to
//                          refuse resuming under a different setup; its
//                          text is the run config explore/scenario writes
//                          (to_config) and parses (from_config)
//
// Appends are buffered and flushed every `flush_every` records (and on
// destruction), so a killed run loses at most the unflushed group — with
// the default flush_every = 1 that is the single record being written.
// Opening for append repairs a torn tail (truncating past the last
// CRC-verified frame), load() skips corrupt records, and resume is cache
// warming.  `explore_cli --dump` prints a directory's records as one
// JSON object per line for grep and diff.
//
// Directories from older builds may still hold the retired NDJSON row
// log (results.ndjson, results.shard-<i>.ndjson).  Every entry point
// that reads or appends to a directory refuses one with an error naming
// the file: skipping it silently would make a resume recompute
// everything it holds.
//
// Sharded runs: a multi-process exploration points K RunLog instances
// at ONE run directory, each with its own shard index.  Shard i appends
// to <dir>/results.shard-i.msbin — append-only files never contended
// across processes — while meta.json (written atomically, so concurrent
// shard starts cannot tear it) pins the shared configuration including
// the shard count.  load() unions every result file in shard order,
// load_shard() reads one shard's file (what that shard's resume warms
// from), and merge()/compact() collapse the union into the single
// deduplicated log a single-process run would have produced.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/engine.hpp"
#include "search/binary_log.hpp"

namespace mergescale::search {

/// On-disk result-log encoding: the CRC-framed binary log is the only
/// one.  Kept as the first RunLogOptions member so existing aggregate
/// initializers ({LogFormat::kBinary, flush_every}) still compile.
enum class LogFormat {
  kBinary,  ///< CRC-framed fixed-width records (search/binary_log)
};

/// Parses a `--log-format` value: "binary" is the only one.  "ndjson"
/// throws std::invalid_argument pointing at `explore_cli --dump`, the
/// line-per-record view that replaced the NDJSON log; anything else
/// throws std::invalid_argument too.
LogFormat parse_log_format(std::string_view name);

/// Sentinel shard index: the run is not sharded.
inline constexpr std::size_t kUnsharded = static_cast<std::size_t>(-1);

struct RunLogOptions {
  LogFormat format = LogFormat::kBinary;
  /// Records buffered between flushes.  1 reproduces the historical
  /// flush-per-record durability; larger groups trade a bounded crash
  /// window (at most `flush_every` unflushed records) for an order of
  /// magnitude fewer write syscalls on large runs.
  std::size_t flush_every = 1;
  /// Shard index of a multi-process run: appends go to
  /// <dir>/results.shard-<i>.msbin instead of the unsharded file.
  /// kUnsharded (the default) keeps the single-process layout.
  std::size_t shard = kUnsharded;
  /// fsync every flushed group.  The default window (a group survives a
  /// process kill once flush returns, but not power loss) costs no
  /// fsyncs on the hot path; with this set, a flushed group also
  /// survives power loss, at one fsync per group.
  bool fsync = false;
};

class RunLog {
 public:
  /// Opens `dir`'s result log for append, creating `dir` if needed and
  /// repairing a torn tail left by a killed run.  Throws
  /// std::runtime_error when the file cannot be opened or `dir` still
  /// holds a retired NDJSON log.
  explicit RunLog(const std::string& dir, RunLogOptions options = {});

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  /// Appends one result; the write reaches disk with its flush group.
  void append(const explore::EvalResult& result) { log_.append(result); }

  /// Writes any buffered records through to disk.
  void flush() { log_.flush(); }

  /// Results appended through *this* log instance (not the file total).
  std::uint64_t appended() const noexcept { return log_.appended(); }

  /// The result file this instance appends to.
  const std::string& path() const noexcept { return log_.path(); }

  /// Result files: <dir>/results.msbin, and <dir>/results.shard-<i>.msbin
  /// for shard i of a sharded run.
  static std::string binary_results_path(const std::string& dir);
  static std::string shard_binary_results_path(const std::string& dir,
                                               std::size_t shard);
  static std::string meta_path(const std::string& dir);

  /// Columnar archive of a compacted run: <dir>/archive.msca
  /// (search/archive).  `explore_cli --archive` rewrites a merged log
  /// into it; load()/load_range() read it back.
  static std::string archive_path(const std::string& dir);

  /// True when `dir` holds a columnar archive.
  static bool has_archive(const std::string& dir);

  /// True when `dir` holds recorded results: a result log — unsharded
  /// or belonging to any shard — or a columnar archive.
  static bool has_results(const std::string& dir);

  /// Parses every well-formed record under `dir`: the columnar archive
  /// first when one exists (its records are the compacted history, so
  /// first-occurrence dedup favors them), then the unsharded log
  /// followed by every shard's log in shard order, so the union of a
  /// sharded run loads in ascending flat-index order.  A missing file
  /// yields no records; torn or CRC-corrupted records are skipped.
  /// Records whose numeric fields were non-finite load as infeasible
  /// rather than being dropped, so a resumed run does not re-spend
  /// budget on them.  A retired NDJSON log in `dir` throws.
  static std::vector<explore::EvalResult> load(const std::string& dir);

  /// Records with begin <= flat index < end, from the archive (which
  /// seeks only the blocks whose zone index ranges intersect — the
  /// index-sorted layout makes a flat range a contiguous block band)
  /// plus any result-log records in range.  What an exhaustive shard
  /// resuming against an archived directory warms from: the union is
  /// never materialized.  A corrupt archive throws, exactly as load().
  static std::vector<explore::EvalResult> load_range(const std::string& dir,
                                                     std::size_t begin,
                                                     std::size_t end);

  /// Parses only shard `shard`'s log under `dir` — what a resumed
  /// shard warms its cache (and counts its already-spent budget) from.
  /// Sibling shards' records must NOT warm an adaptive shard: its
  /// budget accounting replays its own trajectory, not the union's.
  static std::vector<explore::EvalResult> load_shard(const std::string& dir,
                                                     std::size_t shard);

  /// Appends every result-log record under `dir` to `*records` — load()
  /// without the columnar archive: what a query server decodes on top of
  /// an archive it serves straight from the file.
  static void load_logs(const std::string& dir,
                        std::vector<explore::EvalResult>* records);

  /// First-occurrence deduplication by design point (search/design_key)
  /// — the in-memory form of the identity compact()/merge() rewrite
  /// under, for callers that union records without rewriting them (an
  /// archive must not let a duplicate record occupy two query ranks).
  static std::vector<explore::EvalResult> dedup(
      std::vector<explore::EvalResult> records);

  /// Seeds `engine`'s memo cache from `records`, rebuilding each
  /// record's request with explore::point_job — the builder expand()
  /// and job_at use, so a warmed key is the key the run evaluated.
  /// Labels are matched to the spec's axes with explore::find_label;
  /// records that no longer match any axis are skipped.  Returns the
  /// number of cache entries written.
  static std::size_t warm(const std::vector<explore::EvalResult>& records,
                          const explore::ScenarioSpec& spec,
                          explore::ExploreEngine& engine);

  struct CompactStats {
    std::size_t loaded = 0;  ///< records read across all result files
    std::size_t kept = 0;    ///< records surviving deduplication
  };

  /// Rewrites `dir`'s result log, dropping all but the first record of
  /// every duplicate design point (same variant, n, app, growth,
  /// topology, r, rl — duplicates accumulate when logs are merged).  The
  /// rewrite is atomic (temp file + rename) and leaves exactly one
  /// result file, so compacting is also how a sharded directory's
  /// per-shard files are unioned into one log (shard files are removed
  /// after the rewrite).  An empty or never-recorded directory — no
  /// result files, or only header-only ones — is a no-op returning
  /// {0, 0}: nothing is created, removed, or rewritten.  Throws
  /// std::runtime_error on I/O failure.
  static CompactStats compact(const std::string& dir,
                              std::size_t flush_every = 256);

  struct MergeStats {
    std::size_t sources = 0;  ///< source directories unioned in
    std::size_t loaded = 0;   ///< records read across target + sources
    std::size_t kept = 0;     ///< unique design points after dedup
  };

  /// Unions recorded runs into `target`: the target's records (shard
  /// files included, in shard order) followed by every source
  /// directory's are deduplicated and atomically rewritten as one
  /// result file.  Every source, and `target` itself when it already
  /// holds a run, must carry an identical meta config: a shard
  /// recorded under a different space, strategy, or shard count is
  /// refused (std::runtime_error) rather than silently unioned.
  /// Sources equal to `target` contribute their records without
  /// re-appending.  At least one of target/sources must be recorded.
  ///
  /// `strip_shard_token` rewrites meta.json without the ";shards=K"
  /// token, making the merged directory resumable as a single-process
  /// run.  Pass true ONLY for position-independent recordings
  /// (exhaustive sweeps, where the union covers exactly what one
  /// process would have recorded).  For adaptive strategies the token
  /// must stay: a single-process resume would charge the whole union
  /// as already-spent against one seed's trajectory — the cross-shard
  /// warm poisoning load_shard() exists to prevent — so keeping the
  /// token makes such a resume refuse loudly instead.
  static MergeStats merge(const std::string& target,
                          const std::vector<std::string>& sources,
                          std::size_t flush_every = 256,
                          bool strip_shard_token = false);

  /// Writes `<dir>/meta.json` recording `config` (creates `dir`).  The
  /// write goes to a temp file, is flushed and verified, then renamed
  /// into place — atomic, so concurrent shard processes recording the
  /// same config cannot tear it and a crash cannot leave a partial
  /// record.  Throws std::runtime_error when it cannot be completed, so
  /// a run never starts with a meta record that would leave the
  /// directory unresumable.
  static void write_meta(const std::string& dir, const std::string& config);

  /// Reads the config string back.  std::nullopt when the file is
  /// missing (the directory was never recorded); throws
  /// std::runtime_error when the file exists but is empty or malformed
  /// (a crash-truncated write), since that is corruption, not absence.
  static std::optional<std::string> read_meta(const std::string& dir);

 private:
  BinaryLog log_;
};

}  // namespace mergescale::search
