#pragma once
// What a query server serves: one recorded run directory, the scenario
// it was recorded under and its records.  The scenario is *parsed from
// the run meta itself* by the one run-config codec
// (explore::from_config) — the same text explore_cli parsed into the
// spec it evaluated, and the fingerprint resume verifies against — so a
// server pointed at a run directory serves exactly the space that was
// explored, numbers bit-exact, with no re-specification on the serve
// command line to drift out of sync.
//
// The records are served where they lie.  A directory's columnar
// archive (archive.msca) is opened, never decoded: queries run against
// its memory-mapped columns.  Only what the archive does not hold —
// result-log records written after it — is decoded, into a small
// in-memory delta.  A directory without an archive serves an in-memory
// archive built over its decoded logs.  To serve the union of several
// directories, fold them into a new one first (`explore_cli --archive
// --run-dir <new> --merge-from a,b`, search::RunLog::fold) and serve
// that.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "explore/scenario.hpp"
#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "search/space.hpp"

namespace mergescale::serve {

/// An archive and eval's lookup of a design point in it.  An on-grid
/// point is found at its canonical flat index (SearchSpace::index_of,
/// then ArchiveReader::find).  The rows past the grid — off-grid live
/// evaluations a fold took in, and on-grid points that older builds
/// numbered there — are read once, by ArchiveReader::load_all from the
/// grid's size, into a lookup-only map.  Immutable, so thread-safe.
class ServedArchive {
 public:
  ServedArchive(search::ArchiveReader reader,
                const explore::ScenarioSpec& spec);

  /// Zone-map query engine for best/topk/pareto and the counts.
  const search::ArchiveReader& reader() const noexcept { return reader_; }
  /// The served scenario's grid.
  const search::SearchSpace& space() const noexcept { return space_; }

  /// The first archived row, in row order, whose design point is `key`;
  /// nullopt when none is.
  std::optional<explore::EvalResult> find(const search::DesignKey& key) const;

 private:
  search::ArchiveReader reader_;
  search::SearchSpace space_;
  /// The rows with index >= space_.size(), index-ascending.
  std::vector<explore::EvalResult> past_grid_;
  /// The first of past_grid_'s rows for each design point.
  std::unordered_map<search::DesignKey, const explore::EvalResult*,
                     search::DesignKeyHash>
      past_grid_keys_;
};

/// A recorded run as a server answers from it.
struct ServedRun {
  std::string dir;     ///< run directory (live appends go here)
  std::string config;  ///< meta config, shard token stripped
  explore::ScenarioSpec spec;  ///< space the records were drawn from
  /// The file-backed archive.msca, or an in-memory archive over the
  /// decoded logs when there is none.
  ServedArchive archive;
  /// Decoded records the archive does not hold, deduplicated by first
  /// occurrence (search/design_key) and free of any design point the
  /// archive holds.
  std::vector<explore::EvalResult> delta;
};

/// Opens `dir` for serving.  Its meta config, shard token stripped, is
/// parsed into the spec (named "serve"); a directory without meta.json
/// throws std::runtime_error.  archive.msca is opened through
/// ArchiveReader::open and the result logs decode into the delta;
/// without an archive the logs are deduplicated into an in-memory
/// archive and the delta stays empty.  A retired NDJSON log throws.
ServedRun open_served_run(const std::string& dir);

}  // namespace mergescale::serve
