#pragma once
// What a query server serves: a recorded run directory (plus optional
// --merge-from sources) and the scenario it was recorded under.  The
// scenario is *parsed from the run meta itself* by the one run-config
// codec (explore::from_config) — the same text explore_cli parsed into
// the spec it evaluated, and the fingerprint resume verifies against —
// so a server pointed at a run directory serves exactly the space that
// was explored, numbers bit-exact, with no re-specification on the
// serve command line to drift out of sync.
//
// The records are served where they lie.  A directory's columnar
// archive (archive.msca) is opened, never decoded: queries run against
// its memory-mapped columns.  Only what the archive does not hold —
// result-log records written after it and the sources' records — is
// decoded, into a small in-memory delta.  A directory without an
// archive serves an in-memory archive built over its decoded logs.

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

struct ServedRun {
  std::string dir;     ///< target run directory (live appends go here)
  std::string config;  ///< meta config, shard token stripped
  explore::ScenarioSpec spec;  ///< space the records were drawn from
};

/// An archive and eval's lookup of a design point in it.  An on-grid
/// point is found at its canonical flat index (SearchSpace::index_of,
/// then ArchiveReader::find).  The rows past the grid — off-grid live
/// evaluations a fold took in, and on-grid points that older builds
/// numbered there — are materialized once, by zone pruning on the
/// index, into a lookup-only map.  Immutable, so thread-safe.
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

/// The records a server answers from.
struct ServedRecords {
  /// The file-backed archive.msca, or an in-memory archive over the
  /// decoded logs when there is none.
  ServedArchive archive;
  /// Decoded records the archive does not hold, deduplicated by first
  /// occurrence (search/design_key) and free of any design point the
  /// archive holds.
  std::vector<explore::EvalResult> delta;
};

/// Reads the meta config of `dir` and every source.  They must agree
/// modulo the shard token (a sharded run may be unioned with its
/// folded form); an unrecorded directory or a mismatch throws
/// std::runtime_error, as RunLog::fold refuses them.  The spec
/// is explore::from_config of the shared config, named "serve".
ServedRun open_served_run(const std::string& dir,
                          const std::vector<std::string>& sources = {});

/// Opens the records of `run.dir` and `sources` (validated by
/// open_served_run): `run.dir`'s archive.msca through
/// ArchiveReader::open, and `run.dir`'s result logs plus every source's
/// records (a source equal to `run.dir` contributes nothing new) as the
/// delta.  Without an archive the same union is deduplicated into an
/// in-memory archive and the delta stays empty.
ServedRecords open_served_records(const ServedRun& run,
                                  const std::vector<std::string>& sources = {});

}  // namespace mergescale::serve
