#pragma once
// mslint: repo-specific static checks that general tools can't express.
//
// The linter is a token-level scanner, not a parser: it strips comments
// and string-literal contents, tracks `// mslint: hot-path` / `// mslint:
// cold` regions, and matches rule patterns against what remains.  That
// is exactly enough for the invariants it enforces (see kRules below)
// and means it runs on any compiler in milliseconds — the deep semantic
// checks belong to clang-tidy and -Wthread-safety, which ride in the
// same CI job.
//
// Directives (anywhere in a line comment):
//   // mslint: hot-path          -- hot-path rules apply from here on
//   // mslint: cold              -- hot-path rules stop applying
//   // mslint: allow(rule[, rule...])  -- suppress those rules on this line
//
// Rules:
//   hot-alloc        new/malloc/make_unique/make_shared in a hot region
//   hot-string       std::string construction / std::to_string in a hot
//                    region (std::string_view and references are fine)
//   hot-iostream     iostream/sstream/fstream objects in a hot region
//   raw-law-name     .name() or intern( in a hot region — hot code keys
//                    laws by interned name_id, never by string
//   bare-lock        .lock()/.unlock() on a mutex-named receiver outside
//                    a RAII guard (mu/mu_/mtx/mutex/*_mu/*_mutex)
//   raw-io           direct file primitives (fopen/fwrite/fread and
//                    global-qualified ::open/::write/::fsync/::rename
//                    and friends) outside util/io_env.cpp — the fault
//                    injection seam must not erode

#include <string>
#include <string_view>
#include <vector>

namespace mergescale::lint {

struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Every rule ID the scanner can emit, for --list-rules and tests.
const std::vector<std::string>& rule_ids();

/// Lints one translation unit's text.  `path` is used only for Finding
/// labels; no I/O happens here.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view content);

/// Reads and lints a file.  Throws std::runtime_error when unreadable.
std::vector<Finding> lint_file(const std::string& path);

/// `file:line: rule: message` — one finding per line, stable enough to
/// grep or diff in CI.
std::string format_finding(const Finding& finding);

}  // namespace mergescale::lint
