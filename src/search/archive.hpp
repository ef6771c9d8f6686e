#pragma once
// Columnar archive over merged run logs: the storage format top-k,
// Pareto, and predicate queries run against without replaying the log.
//
//   <dir>/archive.msca   one file, little-endian throughout:
//
//     header      magic/version/schema, row + feasible counts, block
//                 geometry, section offsets, header CRC
//     columns     per-column fixed-width arrays over all rows, sorted
//                 by the primary key (flat job index, ascending — the
//                 order RunLog::load() yields), so a shard's flat-index
//                 range is a contiguous band of blocks
//     zone maps   per block of `block_rows` rows: min/max index,
//                 min/max speedup / cores / n, feasible-row count —
//                 CRC'd, loaded eagerly, consulted to prune blocks
//     block CRCs  one CRC-32 per (block, column) slice, verified
//                 lazily on a slice's first touch, so a query pays for
//                 exactly the bytes its zone maps admit
//     dictionary  dense id -> name sidecar for the four label columns
//                 (ids are assigned through util::intern, the
//                 interner-backed dictionary the roadmap names)
//
// The reader opens the file read-only through util::IoEnv
// (RealIoEnv serves reads from a private mmap; FaultyIoEnv keeps
// injecting io.read faults), never materializes the full record set —
// queries scan only the column slices of the blocks that survive zone
// pruning and materialize only the rows they return — and refuses
// corruption loudly: truncation and schema mismatches fail open(),
// a flipped bit fails the touched slice's CRC, and no query ever
// fabricates a record.  Writes are crash-safe: encode in memory, write
// a temp file, fsync, rename into place.
//
// Non-finite numeric fields are stored the way the log loaders surface
// them (the NDJSON `null` convention): the design point is kept but
// archived as infeasible with cores/speedup zeroed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "search/design_key.hpp"

namespace mergescale::search {

/// Rows per block (the zone-map granularity).  4096 rows is ~270 KiB of
/// column data per block: big enough that per-block CRC overhead is
/// noise, small enough that a point query touches well under 1% of a
/// million-row archive.
inline constexpr std::uint32_t kDefaultArchiveBlockRows = 4096;

/// Shape of an encoded archive (returned by write_archive, recoverable
/// from any open reader).
struct ArchiveStats {
  std::uint64_t rows = 0;
  std::uint64_t feasible_rows = 0;
  std::uint32_t block_rows = 0;
  std::uint32_t blocks = 0;
  std::uint32_t dict_entries = 0;
  std::uint64_t bytes = 0;  ///< total file size
};

/// Encodes `records` into the archive byte format (sorted stably by
/// index; the caller is expected to have deduplicated — duplicate
/// design points would occupy two rows and two query ranks).  Throws
/// std::invalid_argument when `block_rows` is zero.
std::string encode_archive(
    const std::vector<explore::EvalResult>& records,
    std::uint32_t block_rows = kDefaultArchiveBlockRows);

/// Encodes and atomically writes `path` (temp file + fsync + rename)
/// through util::io_env().  Throws std::runtime_error on I/O failure.
ArchiveStats write_archive(
    const std::string& path, const std::vector<explore::EvalResult>& records,
    std::uint32_t block_rows = kDefaultArchiveBlockRows);

/// Conjunction of range filters for ArchiveReader::query() — the
/// "speedup >= X and cores <= Y" class of question.  Every bound is
/// inclusive; unset bounds don't filter.
struct ArchivePredicate {
  std::optional<double> min_speedup;
  std::optional<double> max_speedup;
  std::optional<double> min_cores;
  std::optional<double> max_cores;
  std::optional<double> min_n;
  std::optional<double> max_n;
  bool feasible_only = true;
};

/// Read-only query engine over one archive.  All query methods are
/// const and thread-safe (slice-validation state is atomic), so a
/// server can answer concurrent queries through one reader.  Methods
/// throw std::runtime_error on I/O failure or detected corruption.
class ArchiveReader {
 public:
  /// Opens `path` through util::io_env().  Throws std::runtime_error
  /// when the file is missing, truncated, carries a different
  /// format version/schema, or an eagerly-checked section fails CRC.
  static ArchiveReader open(const std::string& path);

  /// Builds an in-memory archive over `records` — the same engine and
  /// semantics as a file-backed reader, for serving unarchived runs.
  static ArchiveReader from_records(
      const std::vector<explore::EvalResult>& records,
      std::uint32_t block_rows = kDefaultArchiveBlockRows);

  /// Wraps already-encoded archive bytes (fuzz tests corrupt these).
  /// `name` labels error messages.
  static ArchiveReader from_buffer(std::string bytes,
                                   std::string name = "<memory>");

  ~ArchiveReader();
  ArchiveReader(ArchiveReader&&) noexcept;
  ArchiveReader& operator=(ArchiveReader&&) noexcept;
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  std::uint64_t row_count() const noexcept;
  std::uint64_t feasible_count() const noexcept;
  ArchiveStats stats() const noexcept;

  /// Highest-speedup feasible record (ties toward the lower index);
  /// nullopt when nothing is feasible.  Equals explore::best_result
  /// over the archived records.
  std::optional<explore::EvalResult> best() const;

  /// The k best feasible records under (speedup desc, index asc) —
  /// byte-equal to explore::top_k over the archived records.  Blocks
  /// are visited in descending zone max-speedup and the scan stops
  /// once no remaining block can beat the current k-th candidate.
  std::vector<explore::EvalResult> top_k(std::size_t k) const;

  /// The speedup-vs-cost Pareto frontier, cost ascending — byte-equal
  /// to explore::pareto_frontier over the archived records.  Scans
  /// only the feasible/index/speedup/cost columns; materializes only
  /// the frontier.
  std::vector<explore::EvalResult> pareto(explore::CostMetric metric) const;

  /// Records matching `predicate`, in archive (index-ascending) order.
  /// Blocks whose zone ranges cannot intersect the bounds are never
  /// read.
  std::vector<explore::EvalResult> query(
      const ArchivePredicate& predicate) const;

  /// Blocks query(predicate) would scan after zone pruning — exposed
  /// so tests can assert pruning actually happens.
  std::uint32_t candidate_blocks(const ArchivePredicate& predicate) const;

  /// Records with begin <= index < end, index-ascending.  Rows are
  /// index-sorted, so this touches exactly the contiguous band of
  /// blocks whose zone index range intersects — what a resumed shard
  /// warms from without loading the union.
  std::vector<explore::EvalResult> load_index_range(std::uint64_t begin,
                                                    std::uint64_t end) const;

  /// The row holding `key`'s design point, or nullopt.  The first call
  /// builds a table of row ids keyed by design point from the key
  /// columns alone (once, under a once-guard, timed by key_table_ms());
  /// later calls probe it and re-check the candidate row's columns, so a
  /// hash collision never returns another point's row.  Among duplicate
  /// rows the first wins, as RunLog::dedup would keep it.  open() stays
  /// O(header) and best/top_k/pareto never pay for the table.
  std::optional<explore::EvalResult> find(const DesignKey& key) const;

  /// Milliseconds the first find() spent building its key table; 0
  /// until then.
  double key_table_ms() const noexcept;

  /// Every record, index-ascending (block by block; the one full
  /// materialization, for RunLog::load()).
  std::vector<explore::EvalResult> load_all() const;

 private:
  struct Impl;
  explicit ArchiveReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace mergescale::search
