#pragma once
// Disk persistence for exploration runs: an append-only result log plus
// a small meta record, both under one run directory.  Two log formats
// share one facade:
//
//   <dir>/results.ndjson   one explore::write_ndjson line per *fresh*
//                          evaluation — self-describing, grep-able,
//                          ~180 B/point
//   <dir>/results.msbin    the compact binary format (search/binary_log)
//                          — fixed-width CRC-framed records, ~75 B/point,
//                          the choice for multi-million-point runs
//   <dir>/meta.json        the run configuration fingerprint, used to
//                          refuse resuming under a different setup
//
// Appends are buffered and flushed every `flush_every` records (and on
// destruction), so a killed run loses at most the unflushed group — with
// the default flush_every = 1 that is the single record being written,
// the historical per-line guarantee.  With `async` on, encoding and the
// write syscalls move to a dedicated writer thread behind a
// double-buffered (depth-one) group queue: append() only copies the
// record into the filling group, the writer drains complete groups
// concurrently with evaluation, and flush()/destruction drain cleanly.
// The crash window stays one flush group in flight plus the group still
// filling.  load()/warm()/resume and the torn-tail repair semantics are
// identical across formats: opening for append repairs a torn tail
// (NDJSON: terminates the fragment line; binary: truncates past the
// last CRC-verified frame), load() skips corrupt records, and resume is
// cache warming either way.
//
// Sharded runs: a multi-process exploration points K RunLog instances
// at ONE run directory, each with its own shard index.  Shard i appends
// to <dir>/results.shard-i.<ext> — append-only files never contended
// across processes — while meta.json (written atomically, so concurrent
// shard starts cannot tear it) pins the shared configuration including
// the shard count.  load() unions every result file in shard order,
// load_shard() reads one shard's files (what that shard's resume warms
// from), and merge()/compact() collapse the union into the single
// deduplicated log a single-process run would have produced.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "explore/engine.hpp"
#include "search/binary_log.hpp"
#include "search/ndjson.hpp"
#include "util/io_env.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::search {

/// On-disk result-log encodings.
enum class LogFormat {
  kNdjson,  ///< one JSON object per line (default; self-describing)
  kBinary,  ///< CRC-framed fixed-width records (multi-million-point runs)
};

/// Printable format name ("ndjson", "binary").
std::string_view log_format_name(LogFormat format) noexcept;

/// Parses a format name (throws std::invalid_argument).
LogFormat parse_log_format(std::string_view name);

/// Sentinel shard index: the run is not sharded.
inline constexpr std::size_t kUnsharded = static_cast<std::size_t>(-1);

struct RunLogOptions {
  LogFormat format = LogFormat::kNdjson;
  /// Records buffered between flushes.  1 reproduces the historical
  /// flush-per-record durability; larger groups trade a bounded crash
  /// window (at most `flush_every` unflushed records) for an order of
  /// magnitude fewer write syscalls on large runs.
  std::size_t flush_every = 1;
  /// Encode and write on a dedicated writer thread instead of the
  /// appending thread.  Groups are handed over through a depth-one
  /// queue (classic double buffering: one group filling, at most one in
  /// flight), so producer memory is bounded and the crash window grows
  /// by at most the single in-flight group.  flush() drains the queue
  /// before returning; writer-side I/O errors surface on the next
  /// append()/flush().
  bool async = false;
  /// Shard index of a multi-process run: appends go to
  /// <dir>/results.shard-<i>.<ext> instead of the unsharded file.
  /// kUnsharded (the default) keeps the single-process layout.
  std::size_t shard = kUnsharded;
  /// fsync every flushed group.  The default window (a group survives a
  /// process kill once flush returns, but not power loss) matches the
  /// historical behavior and costs no fsyncs on the hot path; with this
  /// set, a flushed group also survives power loss, at one fsync per
  /// group.
  bool fsync = false;
};

class RunLog {
 public:
  /// Opens `dir`'s result log for append in `options.format`, creating
  /// `dir` if needed and repairing a torn tail left by a killed run.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit RunLog(std::string dir, RunLogOptions options = {});

  /// Flushes any buffered records (draining the writer thread first in
  /// async mode) and stops the writer thread.
  ~RunLog();

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  /// Appends one result; the write reaches disk with its flush group.
  /// Async mode: the record joins the filling group and the call
  /// returns; a full group is handed to the writer thread (blocking
  /// only while a previous group is still in flight).
  void append(const explore::EvalResult& result);
  /// Move form: callers done with the record (streaming sweeps that log
  /// and discard) hand the labels over instead of copying them — the
  /// async producer path's per-record cost drops to pointer swaps.
  void append(explore::EvalResult&& result);

  /// Writes any buffered records through to disk.  Async mode: hands
  /// over the partial group, waits for the writer to drain, and
  /// rethrows any writer-side I/O error.
  void flush();

  /// Results appended through *this* log instance (not the file total).
  std::uint64_t appended() const noexcept { return appended_; }

  const std::string& dir() const noexcept { return dir_; }
  LogFormat format() const noexcept { return options_.format; }

  static std::string results_path(const std::string& dir);
  static std::string binary_results_path(const std::string& dir);
  /// Shard-qualified result files: <dir>/results.shard-<i>.<ext>.
  static std::string shard_results_path(const std::string& dir,
                                        std::size_t shard);
  static std::string shard_binary_results_path(const std::string& dir,
                                               std::size_t shard);
  static std::string meta_path(const std::string& dir);

  /// Columnar archive of a compacted run: <dir>/archive.msca
  /// (search/archive).  `explore_cli --archive` rewrites a merged log
  /// into it; load()/load_range() read it back.
  static std::string archive_path(const std::string& dir);

  /// True when `dir` holds a columnar archive.
  static bool has_archive(const std::string& dir);

  /// True when `dir` holds recorded results: a result log in either
  /// format — unsharded or belonging to any shard — or a columnar
  /// archive.
  static bool has_results(const std::string& dir);

  /// Parses every well-formed record under `dir`: the columnar archive
  /// first when one exists (its records are the compacted history, so
  /// first-occurrence dedup favors them), then the unsharded files
  /// (both formats, NDJSON first — a directory normally holds one;
  /// after a format switch on resume it can hold both, and the warm
  /// cache dedups overlaps) followed by every shard's files in shard
  /// order, so the union of a sharded run loads in ascending flat-index
  /// order.  A missing file yields no records; malformed, torn, or
  /// CRC-corrupted records are skipped.  Records whose numeric fields
  /// were non-finite load as infeasible rather than being dropped, so a
  /// resumed run does not re-spend budget on them.
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

  /// Parses only shard `shard`'s files under `dir` — what a resumed
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

  /// Decodes one NDJSON log line (exposed for round-trip tests).
  static std::optional<explore::EvalResult> parse_result(
      std::string_view line);

  /// Seeds `engine`'s memo cache from `records`, reconstructing each
  /// record's EvalRequest against `spec` (labels are matched to the
  /// spec's axes; records that no longer match any axis are skipped).
  /// Returns the number of cache entries written.
  static std::size_t warm(const std::vector<explore::EvalResult>& records,
                          const explore::ScenarioSpec& spec,
                          explore::ExploreEngine& engine);

  struct CompactStats {
    std::size_t loaded = 0;  ///< records read across all result files
    std::size_t kept = 0;    ///< records surviving deduplication
  };

  /// Rewrites `dir`'s result log in `format`, dropping all but the first
  /// record of every duplicate design point (same variant, n, app,
  /// growth, topology, r, rl — duplicates accumulate when logs are
  /// merged or a directory is resumed across formats).  The rewrite is
  /// atomic (temp file + rename) and leaves exactly one result file, so
  /// compacting is also how an NDJSON log is migrated to binary (or
  /// back) and how a sharded directory's per-shard files are unioned
  /// into one log (shard files are removed after the rewrite).  An
  /// empty or never-recorded directory — no result files, or only
  /// header-only/empty ones — is a no-op returning {0, 0}: nothing is
  /// created, removed, or rewritten.  Throws std::runtime_error on I/O
  /// failure.
  static CompactStats compact(const std::string& dir, LogFormat format,
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
                          LogFormat format, std::size_t flush_every = 256,
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
  /// The result file this instance appends to (honors options_.shard).
  std::string append_path() const;
  /// Encodes + writes one group of records and flushes the stream.
  /// Sync mode: called inline from append()/flush(); async mode: only
  /// ever called on the writer thread.
  void write_group(const std::vector<explore::EvalResult>& group);
  /// Hands the filling group to the writer thread, blocking while a
  /// previous group is still in flight.  Rethrows a pending writer
  /// error.
  void enqueue_group() MS_EXCLUDES(mutex_);
  /// Writer-thread main loop.
  void writer_main() MS_EXCLUDES(mutex_);

  std::string dir_;
  RunLogOptions options_;
  /// The env active at construction; every byte this instance moves
  /// (including from the writer thread) goes through it.
  util::IoEnv* env_ = nullptr;
  // NDJSON state (format == kNdjson).
  std::unique_ptr<util::WritableFile> out_;
  std::string buffer_;
  std::size_t buffered_records_ = 0;
  // Binary state (format == kBinary).
  std::unique_ptr<BinaryLog> binary_;
  std::uint64_t appended_ = 0;
  // Group being filled by append() (producer side, async mode only —
  // the sync path encodes straight into buffer_/binary_).  NOT guarded
  // by mutex_: only the single appending thread touches it; the handoff
  // to the writer is the under-lock swap in enqueue_group().
  std::vector<explore::EvalResult> filling_;
  // Writer-thread state (async mode only).  mutex_ guards the depth-one
  // queue and every flag the two condition variables wait on.
  std::thread writer_;
  util::Mutex mutex_;
  util::CondVar producer_cv_;  ///< queue slot free / drained
  util::CondVar writer_cv_;    ///< group ready / stop
  std::vector<explore::EvalResult> in_flight_ MS_GUARDED_BY(mutex_);
  /// in_flight_ holds an unconsumed group.
  bool in_flight_ready_ MS_GUARDED_BY(mutex_) = false;
  /// Writer is encoding/writing a group.
  bool writer_busy_ MS_GUARDED_BY(mutex_) = false;
  bool stopping_ MS_GUARDED_BY(mutex_) = false;
  std::exception_ptr writer_error_ MS_GUARDED_BY(mutex_);
  /// Lock-free mirror of writer_error_'s presence, so the append hot
  /// path can notice a dead writer without taking the mutex per record.
  std::atomic<bool> writer_failed_{false};
};

}  // namespace mergescale::search
