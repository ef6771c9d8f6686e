#pragma once
// Newline-delimited query protocol for the exploration server.  One
// request per line, one framed reply per request:
//
//   best                      highest-speedup feasible design
//   topk <k>                  top-k table (k in [1, 1000])
//   pareto area|cores         Pareto-frontier table for a cost metric
//   eval k=v ...              what-if point (variant/n/app/growth/r/rl,
//                             topology for the comm variants)
//   stats                     server + eval counters, one k=v per line
//   quit                      close this connection
//
// Replies are framed so a client can read them without knowing the
// payload shape:
//
//   OK <kind> lines=<N>\n  <N payload lines>  END\n
//   ERR <one-line message>\n
//
// Parsing never throws and never crashes on malformed, oversized, or
// torn input: every reject path produces an error string for a one-line
// ERR reply, which is what keeps an exposed socket loop robust against
// arbitrary bytes.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "explore/engine.hpp"

namespace mergescale::serve {

/// Hard cap on one request line (newline excluded).  Anything longer is
/// rejected before parsing — a bound on per-connection memory and on the
/// work a garbage line can cause.
inline constexpr std::size_t kMaxLineBytes = 4096;

/// Largest k a `topk` query may ask for.
inline constexpr std::size_t kMaxTopK = 1000;

enum class QueryKind { kBest, kTopK, kPareto, kEval, kStats, kQuit };

/// Printable query-kind name (the <kind> token of an OK header).
std::string_view query_kind_name(QueryKind kind) noexcept;

/// One parsed request.  Eval coordinates stay textual: the parser is
/// deliberately ignorant of the archive's scenario, so name resolution
/// (and its error messages) happens where the spec lives.
struct Query {
  QueryKind kind = QueryKind::kBest;
  std::size_t k = 5;  ///< topk only
  explore::CostMetric metric = explore::CostMetric::kCoreArea;  ///< pareto
  // eval coordinates (key=value tokens, order-free).
  std::string variant;
  std::string app;
  std::string growth;
  std::string topology = "-";  ///< optional; required for comm variants
  double n = 0.0;
  double r = 0.0;
  double rl = 0.0;  ///< optional; defaults to 0 (symmetric variants)
};

/// Parses one request line (no trailing newline).  Returns std::nullopt
/// with `*error` set on any malformed input — unknown command, bad token
/// count, unparsable number, out-of-range k, oversized line.  Never
/// throws.
std::optional<Query> parse_query(std::string_view line, std::string* error);

/// `OK <kind> lines=<N>` header line (with trailing newline).
std::string ok_header(QueryKind kind, std::size_t lines);

/// One-line `ERR <message>` reply (with trailing newline).  The message
/// is flattened to a single line and truncated so a reply can never
/// break the framing, whatever text an exception carried.
std::string err_reply(std::string_view message);

/// Newline-terminated line count of `payload` (a final unterminated
/// fragment counts as one line) — what ok_header's lines= field carries.
std::size_t count_lines(std::string_view payload);

}  // namespace mergescale::serve
