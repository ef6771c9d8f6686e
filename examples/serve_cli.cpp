// serve_cli: exploration-as-a-service over a recorded run directory.
// Start-up reads meta.json, opens the directory's columnar archive
// (archive.msca) in place and decodes only what it does not hold — result
// logs written after it and any --merge-from sources — then answers
// design-space queries over a newline-delimited TCP protocol on
// 127.0.0.1:
//
//   best                      highest-speedup feasible design
//   topk <k>                  top-k table
//   pareto area|cores         Pareto-frontier table
//   eval variant=.. n=.. app=.. growth=.. r=.. [rl=..] [topology=..]
//                             what-if point: archive hit or budgeted
//                             live evaluation (appended to the run log)
//   stats                     server + eval counters
//   quit                      close the connection
//
// Each connection's session thread runs its own queries; nothing limits
// how many execute at once.  With --metrics <path>, the main thread
// appends one NDJSON line per 250 ms window while it waits for a signal,
// e.g. {"window":3,"qps":41210.5,"completed":30977}: the window number
// from 1, queries answered per second in that window, and the running
// (never decreasing) total of queries answered.
//
//   ./build/explore_cli --run-dir /tmp/run --variants asymmetric
//   ./build/serve_cli --run-dir /tmp/run --port-file /tmp/run.port &
//   printf 'best\nquit\n' | ./build/serve_client --port-file /tmp/run.port
//
// The server answers best/topk/pareto byte-identically to explore_cli's
// report over the same records.  Runs until SIGINT/SIGTERM (or
// --max-seconds); a kill -9 loses at most nothing — every live answer
// was flushed to the run log before it was sent.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>

#include "search/run_log.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mergescale;

int main(int argc, char** argv) try {
  util::Cli cli("serve_cli",
                "query server over recorded exploration runs: serve the "
                "columnar archive in place and answer best / topk / pareto "
                "/ eval / stats over a line protocol");
  cli.opt("run-dir", std::string(),
          "recorded run directory to serve (live evals append here)");
  cli.opt("merge-from", std::string(),
          "comma list of additional recorded run dirs to union in "
          "(configs must match modulo sharding)");
  cli.opt("port", static_cast<long long>(0),
          "TCP port on 127.0.0.1 (0 = ephemeral)");
  cli.opt("port-file", std::string(),
          "write the bound port here (atomically) for scripts");
  cli.opt("metrics", std::string(),
          "append one NDJSON line per 250 ms window here: window, qps, "
          "completed");
  cli.opt("threads", static_cast<long long>(0),
          "accepted for compatibility; the server no longer uses it");
  cli.opt("live-budget", static_cast<long long>(100000),
          "live evaluations the server may spend on eval misses");
  cli.opt("log-format", std::string("binary"),
          "append format for live evals: binary, the only one");
  cli.opt("max-seconds", 0.0,
          "exit after this long (0 = run until SIGINT/SIGTERM)");
  cli.flag("fsync",
           "fsync every live-eval append so served answers survive power "
           "loss, not just process death");
  if (!cli.parse(argc, argv)) return 0;

  const search::LogFormat log_format =
      search::parse_log_format(cli.get_string("log-format"));
  const std::string run_dir = cli.get_string("run-dir");
  if (run_dir.empty()) {
    throw std::invalid_argument("serve_cli needs --run-dir <recorded dir>");
  }
  const std::vector<std::string> sources =
      util::split_list(cli.get_string("merge-from"));
  const long long port = cli.get_int("port");
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("--port must be in [0, 65535], got " +
                                std::to_string(port));
  }
  std::ofstream metrics;
  if (const std::string path = cli.get_string("metrics"); !path.empty()) {
    metrics.open(path, std::ios::app);
    if (!metrics.good()) {
      throw std::runtime_error("cannot open metrics file " + path);
    }
  }

  serve::ServedRun run = serve::open_served_run(run_dir, sources);
  serve::ServedRecords records = serve::open_served_records(run_dir, sources);
  std::cout << "serve: " << records.archive.row_count()
            << " archived records + " << records.delta.size()
            << " delta records from " << run_dir;
  if (!sources.empty()) std::cout << " + " << sources.size() << " more dir(s)";
  std::cout << "\n";

  // Live evals append to the *target* directory's results.msbin.
  search::RunLogOptions log_options{log_format, 1};
  log_options.fsync = cli.get_flag("fsync");
  search::RunLog log(run_dir, log_options);

  serve::ServerOptions options;
  options.port = static_cast<int>(port);
  options.port_file = cli.get_string("port-file");
  options.live_budget = static_cast<std::uint64_t>(
      std::max<long long>(0, cli.get_int("live-budget")));

  // Block the exit signals before the server spawns threads (they
  // inherit the mask), so sigtimedwait below is the one place they land.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::QueryServer server(std::move(run), std::move(records), &log,
                            options);
  server.start();
  std::cout << "serve: listening on 127.0.0.1:" << server.port()
            << " (live budget " << options.live_budget << ")\n"
            << std::flush;

  // Wait for SIGINT/SIGTERM (or --max-seconds) in 250 ms slices,
  // appending a --metrics line after each one.
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point from) {
    return std::chrono::duration<double>(Clock::now() - from).count();
  };
  const double max_seconds = cli.get_double("max-seconds");
  const Clock::time_point started = Clock::now();
  Clock::time_point window_start = started;
  std::uint64_t window = 0;
  std::uint64_t last_completed = 0;
  for (;;) {
    double wait = 0.25;
    if (max_seconds > 0.0) {
      wait = std::min(wait, max_seconds - since(started));
      if (wait <= 0.0) break;
    }
    const timespec slice{0, static_cast<long>(wait * 1e9)};
    if (sigtimedwait(&signals, nullptr, &slice) >= 0) break;
    if (!metrics.is_open()) continue;
    const std::uint64_t completed = server.queries_answered();
    const double qps =
        static_cast<double>(completed - last_completed) / since(window_start);
    window_start = Clock::now();
    last_completed = completed;
    metrics << "{\"window\":" << ++window
            << ",\"qps\":" << util::format_general(qps, 9)
            << ",\"completed\":" << completed << "}\n"
            << std::flush;
  }

  server.stop();
  std::cout << "serve: " << server.queries_answered() << " queries answered, "
            << server.live_evals() << " live evaluations\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "serve_cli: " << e.what() << "\n";
  return 1;
}
