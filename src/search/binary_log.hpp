#pragma once
// The run log's on-disk format (results.msbin), built for
// multi-million-evaluation searches: each EvalResult is a fixed-width
// ~75 B frame encoded with plain byte writes, so a persisted search is
// bounded by the models, not the log.
//
// File layout (all integers little-endian):
//
//   header   magic "MSBL" (u32) · version (u32) · schema (u64) ·
//            reserved (u64) — 24 bytes.  The schema word fingerprints
//            the record layout; load and append both refuse a file whose
//            magic/version/schema do not match, so a reader can never
//            silently misparse records written under a different layout.
//   frames   crc (u32) · len (u16) · type (u8) · payload (len bytes)
//            crc is CRC-32 (IEEE) over len+type+payload.
//
// Frame types:
//   0  string-table entry: id (u32) + name bytes.  Labels (scenario,
//      app, growth, topology) are written once per file and referenced
//      by ID from every record — the binary analogue of the interner.
//   1  eval record, fixed 68-byte payload: index u64; variant, feasible,
//      cached, pad u8 each; scenario/app/growth/topology IDs u32 each;
//      n, r, rl, cores, speedup f64 each.
//
// Durability semantics:
//   - Appends are buffered and flushed every `flush_every` records (and
//     on destruction), so a SIGKILL loses at most the unflushed group:
//     one record at this class's default, up to 64 at explore_cli's
//     (search::kSweepFlushEvery).  A group is whole records; string-table
//     frames travel with the first group that follows them.  A failed
//     group write throws and the group is lost, never retried; callers
//     flush() before reporting success, since the destructor swallows
//     errors.
//   - Opening for append repairs a torn tail: the file is truncated to
//     the end of its last CRC-verified frame, so new appends can never
//     glue onto a fragment.
//   - load() skips a CRC-corrupted record and keeps reading (the frame
//     length still delimits it); only corruption that destroys the
//     framing itself — a torn or overwritten length — ends the readable
//     prefix.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "explore/engine.hpp"
#include "util/io_env.hpp"

namespace mergescale::search {

/// Append-side writer.  One instance owns the file; see RunLog for the
/// run-directory facade the search layer uses.
class BinaryLog {
 public:
  /// Size of the file header (magic + version + schema + reserved).
  /// Exposed so corruption tests and merge tooling can reason about the
  /// frame region without re-deriving the layout.
  static constexpr std::size_t kHeaderBytes = 24;

  /// Opens `path` for append (creating it with a fresh header if absent
  /// or empty).  Validates the header, truncates any unverifiable tail,
  /// and reloads the string table so appended records can reference the
  /// labels already on disk.  All file access goes through the
  /// util::IoEnv active at construction.  With `sync_every_flush`, every
  /// flushed group is also fsynced, upgrading the crash window from
  /// process kill to power loss at fsync-per-group cost.  Throws
  /// std::runtime_error when the file cannot be opened or its header
  /// does not match this schema.
  explicit BinaryLog(std::string path, std::size_t flush_every = 1,
                     bool sync_every_flush = false);

  /// Flushes any buffered records.
  ~BinaryLog();

  BinaryLog(const BinaryLog&) = delete;
  BinaryLog& operator=(const BinaryLog&) = delete;

  /// Bytes of one encoded eval-record frame.
  static constexpr std::size_t kRecordBytes = 75;

  /// A record's string-table ids, in label column order: scenario, app,
  /// growth, topology.
  using RecordLabels = std::array<std::uint32_t, 4>;

  /// Encodes one result into the append buffer; writes the buffer
  /// through every `flush_every` records.
  void append(const explore::EvalResult& result);

  /// The string-table id of `name`, queuing its frame when the name is
  /// new; the frame reaches the file with the next record's group.  A
  /// writer that knows its labels up front registers them once and
  /// encodes records with encode_record.
  std::uint32_t label_id(std::string_view name);

  /// Encodes `result` as one eval-record frame (kRecordBytes bytes at
  /// `frame`, CRC included) naming its labels by `labels`, ids
  /// label_id() returned.  Touches no log state: any thread may encode.
  static void encode_record(const explore::EvalResult& result,
                            const RecordLabels& labels, char* frame);

  /// Appends whole encoded record frames (a multiple of kRecordBytes),
  /// in order, exactly as that many append() calls would: a group is
  /// written every `flush_every` records.
  void append_records(std::string_view frames);

  /// Writes the buffer through to the OS (and fsyncs it when
  /// sync_every_flush is set).  A group whose write fails is lost — the
  /// exception is the caller's signal that the window closed.
  void flush();

  /// Records appended through this instance (not the file total).
  std::uint64_t appended() const noexcept { return appended_; }

  const std::string& path() const noexcept { return path_; }

  /// Decodes every readable record of `path`.  A missing file yields an
  /// empty vector; CRC-corrupted records are skipped; records with any
  /// non-finite double load as infeasible (the design point is kept, so
  /// a resume does not re-spend budget on it).  Throws std::runtime_error for a magic/version/schema
  /// mismatch — misparsing a foreign layout would be corruption, not
  /// tolerance.
  static std::vector<explore::EvalResult> load(const std::string& path);

 private:
  /// The string-table id of `name` in label column `column` (scenario,
  /// app, growth, topology), queuing its frame when the name is new.
  /// Neighbouring records mostly repeat their labels, so a one-entry
  /// memo per column answers a repeat and only a change pays for the
  /// hash lookup.
  std::uint32_t string_id(std::size_t column, const std::string& name);

  /// Writes one group through (and fsyncs it when sync_every_flush is
  /// set); throws when any step fails.
  void write_group(std::string_view group);

  std::string path_;
  std::size_t flush_every_;
  bool sync_every_flush_;
  util::IoEnv* env_;
  std::unique_ptr<util::WritableFile> out_;
  std::string buffer_;
  std::size_t buffered_records_ = 0;
  std::uint64_t appended_ = 0;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  /// Each label column's memo: the text, not a pointer into a caller's
  /// record, so nothing can dangle.
  struct LastLabel {
    bool set = false;
    std::string text;
    std::uint32_t id = 0;
  };
  std::array<LastLabel, 4> last_labels_;
  /// Next ID to assign: one past the largest ID on disk, so an ID whose
  /// defining frame was CRC-skipped is never reused for a new name
  /// (records resolve labels in walk order; reuse would rebind them).
  std::uint32_t next_string_id_ = 0;
};

}  // namespace mergescale::search
