#pragma once
// Columnar archive over folded run logs: the storage format top-k,
// Pareto and point queries run against without replaying the log.
//
//   <dir>/archive.msca   one file, little-endian throughout:
//
//     header      magic/version/schema, row + feasible counts, block
//                 geometry, section offsets, header CRC
//     columns     per-column fixed-width arrays over all rows, sorted
//                 by the primary key (flat job index, ascending — the
//                 order RunLog::load() yields)
//     zone maps   per block of `block_rows` rows: min/max index,
//                 min/max speedup / cores / n, feasible-row count —
//                 CRC'd, loaded eagerly, consulted to prune blocks
//     block CRCs  one CRC-32 per (block, column) slice, verified
//                 lazily on a slice's first touch, so a query pays for
//                 exactly the bytes its zone maps admit
//     dictionary  dense id -> name sidecar for the four label columns,
//                 ids in first-seen row order
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
// Non-finite numeric fields are stored the way the log loader surfaces
// them: the design point is kept but archived as infeasible with
// cores/speedup zeroed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "runtime/thread_team.hpp"
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
/// design points would occupy two rows and two query ranks).  After a
/// serial dictionary pass, `team` (the calling thread alone when null)
/// fills the blocks' rows, zone maps and slice CRCs in parallel; the
/// bytes do not depend on the team size (explore_cli's --threads).
/// `team` must not be running a region of its own.  Throws
/// std::invalid_argument when `block_rows` is zero.
std::string encode_archive(
    const std::vector<explore::EvalResult>& records,
    std::uint32_t block_rows = kDefaultArchiveBlockRows,
    runtime::ThreadTeam* team = nullptr);

/// Encodes (through encode_archive, on `team`) and atomically writes
/// `path` (temp file + fsync + rename) through util::io_env().  Throws
/// std::runtime_error on I/O failure.
ArchiveStats write_archive(
    const std::string& path, const std::vector<explore::EvalResult>& records,
    std::uint32_t block_rows = kDefaultArchiveBlockRows,
    runtime::ThreadTeam* team = nullptr);

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
  /// One past the largest index a row holds (from the zone maps); 0 for
  /// an empty archive.
  std::uint64_t index_end() const noexcept;
  ArchiveStats stats() const noexcept;

  /// explore::best_result over the archived records; nullopt when
  /// nothing is feasible.
  std::optional<explore::EvalResult> best() const;

  /// explore::top_k over load_all(), rows being the ids: one
  /// explore::TopK fed blocks in descending zone max-speedup, stopping
  /// once no remaining block can beat its cutoff.  The ranked rows are
  /// memoized, so a later call for a k no larger than one already
  /// ranked (best() included) only materializes its rows.
  std::vector<explore::EvalResult> top_k(std::size_t k) const;

  /// The speedup-vs-cost Pareto frontier, cost ascending — byte-equal
  /// to explore::pareto_frontier over load_all().  Feeds the feasible
  /// rows' index/speedup/cost columns, in row order, to one
  /// explore::ParetoReduction: memory is one candidate per distinct
  /// cost, and only the frontier's rows are materialized.
  std::vector<explore::EvalResult> pareto(explore::CostMetric metric) const;

  /// The first row with index `index` whose design point is `key`, or
  /// nullopt — the row RunLog::dedup would keep among them.  Two binary
  /// searches find the index's rows: the zone maps' index bounds give
  /// the block, its index slice the row; only the candidate rows of
  /// that index are materialized and compared.  Allocates no table, so
  /// open() stays O(header) and no find() pays for another.
  std::optional<explore::EvalResult> find(std::uint64_t index,
                                          const DesignKey& key) const;

  /// Every record whose index is at least `min_index`, index-ascending —
  /// the one call that materializes rows in bulk: RunLog::load() takes
  /// them all, serve's start-up the rows past the grid.  Blocks whose
  /// zone max index is below the bound are never read; the first block
  /// read starts at the bound's row, found by a binary search of its
  /// index slice.
  std::vector<explore::EvalResult> load_all(std::uint64_t min_index = 0) const;

  /// Checks every (block, column) slice against its CRC at once — the
  /// check queries make lazily, slice by slice.  Throws
  /// std::runtime_error naming the first slice that fails.
  void verify() const;

 private:
  struct Impl;
  explicit ArchiveReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace mergescale::search
