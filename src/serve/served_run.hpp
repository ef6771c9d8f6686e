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

#include <string>
#include <vector>

#include "explore/scenario.hpp"
#include "search/archive.hpp"

namespace mergescale::serve {

struct ServedRun {
  std::string dir;     ///< target run directory (live appends go here)
  std::string config;  ///< meta config, shard token stripped
  explore::ScenarioSpec spec;  ///< space the records were drawn from
};

/// The records a server answers from.
struct ServedRecords {
  /// Zone-map query engine: the file-backed archive.msca, or an
  /// in-memory archive over the decoded logs when there is none.
  search::ArchiveReader archive;
  /// Decoded records the archive does not hold, deduplicated by first
  /// occurrence (search/design_key) and free of any design point the
  /// archive holds.
  std::vector<explore::EvalResult> delta;
};

/// Reads the meta config of `dir` and every source.  They must agree
/// modulo the shard token (a sharded run may be unioned with its
/// compacted form); an unrecorded directory or a mismatch throws
/// std::runtime_error, exactly as RunLog::merge refuses them.  The spec
/// is explore::from_config of the shared config, named "serve".
ServedRun open_served_run(const std::string& dir,
                          const std::vector<std::string>& sources = {});

/// Opens the records of `dir` and `sources` (validate them with
/// open_served_run first): `dir`'s archive.msca through
/// ArchiveReader::open, and `dir`'s result logs plus every source's
/// records (a source equal to `dir` contributes nothing new) as the
/// delta.  Without an archive the same union is deduplicated into an
/// in-memory archive and the delta stays empty.
ServedRecords open_served_records(const std::string& dir,
                                  const std::vector<std::string>& sources = {});

}  // namespace mergescale::serve
