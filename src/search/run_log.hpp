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
// destruction), so a killed run loses at most the one unflushed group.
// The library default is one record per group; explore_cli writes
// groups of kSweepFlushEvery = 64 records, so a killed search loses at
// most 64 records (with `fsync`, also under power loss) and a resume
// evaluates exactly those again.  A killed sweep also loses the blocks
// its workers evaluated that the calling thread had not yet appended
// (search::run_sweep: at most its ring of 2 blocks per worker).
// Opening for append repairs a torn tail (truncating past the last
// CRC-verified frame), load() skips corrupt records, and a resume seeds
// its run with the design points the loaded records name
// (search::prior_points).  `explore_cli --dump`
// prints a directory's records as one JSON object per line for grep and
// diff.
//
// fold() is the one way to collapse a directory: it unions the
// directory's records (and any source directories' records), dedups
// them, and writes <dir>/archive.msca through archive(), which removes
// the logs.  `explore_cli --archive [--merge-from a,b]` calls it; a
// fresh exhaustive sweep whose log holds exactly its results calls
// archive() with those results from memory, so such a run ends as
// meta.json + archive.msca with no results.msbin.
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
// load_shard() reads one shard's file (what that shard's resume seeds
// from), and fold() turns an exhaustive union into the archive and
// meta.json a single-process run would have left.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/engine.hpp"
#include "search/archive.hpp"
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

/// The flush group explore_cli appends with unless --flush-every says
/// otherwise: one write per 64 records (4.8 KB) instead of one per
/// record.  RunLogOptions keeps its default of 1.
inline constexpr std::size_t kSweepFlushEvery = 64;

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

  /// BinaryLog::label_id and BinaryLog::append_records on this log: the
  /// sweep registers its axis labels once, encodes record frames on its
  /// workers and appends them in flat order.
  std::uint32_t label_id(std::string_view name) { return log_.label_id(name); }
  void append_records(std::string_view frames) {
    log_.append_records(frames);
  }

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

  /// Columnar archive of a folded run: <dir>/archive.msca
  /// (search/archive).  fold() writes it; load() reads it back.
  static std::string archive_path(const std::string& dir);

  /// True when `dir` holds a columnar archive.
  static bool has_archive(const std::string& dir);

  /// Paths of the result logs under `dir`, listed through
  /// util::io_env(): results.msbin when present, then every shard's log
  /// in shard order.  A missing directory holds none.  Throws
  /// std::runtime_error when `dir` cannot be listed or holds a retired
  /// NDJSON log.
  static std::vector<std::string> result_logs(const std::string& dir);

  /// Writes `records` as `dir`'s columnar archive, then removes every
  /// result log in `dir` (meta.json stays).  `records` must already be
  /// deduplicated: fold() passes its deduplicated union, and a fresh
  /// exhaustive sweep whose log holds exactly its results passes those
  /// from memory — the same records, so the same bytes.  A crash
  /// between the archive's rename and the removals is benign: load()
  /// reads the archive first and dedup() drops the logged overlap.
  /// The archive is encoded on `team` (write_archive).  Throws
  /// std::runtime_error on I/O failure.
  static ArchiveStats archive(const std::string& dir,
                              const std::vector<explore::EvalResult>& records,
                              runtime::ThreadTeam* team = nullptr);

  /// `explore_cli --archive [--merge-from a,b]`: folds `dir` and every
  /// source directory into `dir`'s archive.  Every source, and `dir` if
  /// it has a meta.json, must carry the same meta config, and at least
  /// one must have one; an adaptive sharded run is refused (each shard
  /// resumes its own trajectory from its own log).  `dir` may be a
  /// fresh directory: it is created and takes the sources' config, which
  /// is how several recorded directories become one a server can serve
  /// (serve::open_served_run).  With no sources and
  /// no result logs, an existing archive only has its block CRCs checked
  /// (ArchiveReader::verify); otherwise dedup(load(dir) + load(source)
  /// ...) goes through archive().  meta.json then drops its ";shards=K"
  /// token, so a folded exhaustive union resumes as the single-process
  /// run it equals.  Returns the archive's stats; std::nullopt, touching
  /// nothing, when no member holds a record.  Throws std::runtime_error
  /// on a refusal, an I/O failure or a corrupt archive.
  /// A rewritten archive is encoded on `team`.
  static std::optional<ArchiveStats> fold(
      const std::string& dir, const std::vector<std::string>& sources = {},
      runtime::ThreadTeam* team = nullptr);

  /// True when `dir` holds recorded results: a result log — unsharded
  /// or belonging to any shard — or a columnar archive.
  static bool has_results(const std::string& dir);

  /// Parses every well-formed record under `dir`: the columnar archive
  /// first when one exists (its records are the folded history, so
  /// first-occurrence dedup favors them), then the unsharded log
  /// followed by every shard's log in shard order, so the union of a
  /// sharded run loads in ascending flat-index order.  A missing file
  /// yields no records; torn or CRC-corrupted records are skipped.
  /// Records whose numeric fields were non-finite load as infeasible
  /// rather than being dropped, so a resumed run does not re-spend
  /// budget on them.  A retired NDJSON log in `dir` throws.
  static std::vector<explore::EvalResult> load(const std::string& dir);

  /// Parses only shard `shard`'s log under `dir` — what a resumed
  /// shard seeds its run (and charges its spent budget) from.  Sibling
  /// shards' records must NOT seed an adaptive shard: its budget
  /// accounting replays its own trajectory, not the union's.
  static std::vector<explore::EvalResult> load_shard(const std::string& dir,
                                                     std::size_t shard);

  /// Appends every result-log record under `dir` to `*records` — load()
  /// without the columnar archive: what a query server decodes on top of
  /// an archive it serves straight from the file.
  static void load_logs(const std::string& dir,
                        std::vector<explore::EvalResult>* records);

  /// First-occurrence deduplication by design point (search/design_key)
  /// — the identity fold() archives under, and what callers that union
  /// records without rewriting them apply (an archive must not let a
  /// duplicate record occupy two query ranks).
  static std::vector<explore::EvalResult> dedup(
      std::vector<explore::EvalResult> records);

  /// Kept only for perfbench/tool/replay.cpp (a resume seeds its run
  /// through search::prior_points).  Seeds `engine`'s memo cache from
  /// `records`, rebuilding each
  /// record's request with explore::point_job — the builder expand()
  /// and job_at use, so a warmed key is the key the run evaluated.
  /// Labels are matched to the spec's axes with explore::find_label;
  /// records that no longer match any axis are skipped.  Returns the
  /// number of cache entries written.
  static std::size_t warm(const std::vector<explore::EvalResult>& records,
                          const explore::ScenarioSpec& spec,
                          explore::ExploreEngine& engine);

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
