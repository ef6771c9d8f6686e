#pragma once
// perfbench_tool subcommands.  Each prints one JSON object to stdout and
// returns the process exit code.

#include "common.hpp"

namespace perfbench {

/// `load`: closed-loop socket load against a running serve_cli.
int run_load(const Args& args);

/// `trace-sweep`: traced in-process replay of the sweep + archive path.
int run_trace_sweep(const Args& args);

/// `trace-search`: records a search run untraced, then replays its
/// resume traced.
int run_trace_search(const Args& args);

/// `trace-serve`: traced in-process replay of serve start-up and of the
/// query mix over an archived run directory.
int run_trace_serve(const Args& args);

}  // namespace perfbench
