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
//   stats                     server + probe counters
//   quit                      close the connection
//
// Admitted concurrency is governed by a throughput probe: a background
// controller perturbs the ticket limit between measurement windows and
// keeps what observably improves completed-queries/s (see
// src/serve/probe.hpp).  --metrics streams one NDJSON line per window.
//
//   ./build/explore_cli --run-dir /tmp/run --variants asymmetric
//   ./build/serve_cli --run-dir /tmp/run --port-file /tmp/run.port &
//   printf 'best\nquit\n' | ./build/serve_client --port-file /tmp/run.port
//
// The server answers best/topk/pareto byte-identically to explore_cli's
// report over the same records.  Runs until SIGINT/SIGTERM (or
// --max-seconds); a kill -9 loses at most nothing — every live answer
// was flushed to the run log before it was sent.

#include <csignal>
#include <iostream>
#include <sstream>
#include <thread>

#include "search/run_log.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

using namespace mergescale;

namespace {

std::vector<std::string> split(const std::string& text, char sep = ',') {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("serve_cli",
                "query server over recorded exploration runs: serve the "
                "columnar archive in place and answer best / topk / pareto "
                "/ eval / stats over a line protocol, with "
                "throughput-probed admission control");
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
          "append one NDJSON probe-metrics line per window here");
  cli.opt("threads", static_cast<long long>(0),
          "accepted for compatibility; the server no longer uses it");
  cli.opt("live-budget", static_cast<long long>(100000),
          "live evaluations the server may spend on eval misses");
  cli.opt("probe-window-ms", static_cast<long long>(250),
          "throughput measurement window");
  cli.opt("min-concurrency", static_cast<long long>(1),
          "probe floor for admitted concurrency");
  cli.opt("max-concurrency", static_cast<long long>(0),
          "probe ceiling (0 = 4x hardware concurrency)");
  cli.opt("initial-concurrency", static_cast<long long>(2),
          "admitted concurrency before the first probe window");
  cli.opt("probe-step", 1.25, "probe step multiple (> 1)");
  cli.opt("probe-smoothing", 0.5, "EWMA weight of the newest window");
  cli.opt("probe-tolerance", 0.05,
          "relative throughput change a probe must show");
  cli.opt("probe-backoff", static_cast<long long>(4),
          "stable windows between probe rounds");
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
  const std::vector<std::string> sources = split(cli.get_string("merge-from"));

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
  options.port = static_cast<int>(cli.get_int("port"));
  options.port_file = cli.get_string("port-file");
  options.metrics_path = cli.get_string("metrics");
  options.initial_concurrency =
      static_cast<int>(std::max<long long>(1, cli.get_int("initial-concurrency")));
  options.probe.min_concurrency =
      static_cast<int>(std::max<long long>(1, cli.get_int("min-concurrency")));
  long long max_concurrency = cli.get_int("max-concurrency");
  if (max_concurrency <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    max_concurrency = 4ll * (hw == 0 ? 1 : hw);
  }
  options.probe.max_concurrency = static_cast<int>(
      std::max<long long>(options.probe.min_concurrency, max_concurrency));
  options.probe.step_multiple = cli.get_double("probe-step");
  options.probe.smoothing = cli.get_double("probe-smoothing");
  options.probe.stable_tolerance = cli.get_double("probe-tolerance");
  options.probe.stable_backoff =
      static_cast<int>(std::max<long long>(0, cli.get_int("probe-backoff")));
  options.probe_window = std::chrono::milliseconds(
      std::max<long long>(10, cli.get_int("probe-window-ms")));
  options.live_budget = static_cast<std::uint64_t>(
      std::max<long long>(0, cli.get_int("live-budget")));

  // Block the exit signals before the server spawns threads (they
  // inherit the mask), so sigwait below is the one place they land.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::QueryServer server(std::move(run), std::move(records), &log,
                            options);
  server.start();
  std::cout << "serve: listening on 127.0.0.1:" << server.port()
            << " (concurrency " << options.initial_concurrency << " in ["
            << options.probe.min_concurrency << ", "
            << options.probe.max_concurrency << "], window "
            << options.probe_window.count() << " ms, live budget "
            << options.live_budget << ")\n"
            << std::flush;

  const double max_seconds = cli.get_double("max-seconds");
  if (max_seconds > 0.0) {
    timespec deadline;
    deadline.tv_sec = static_cast<time_t>(max_seconds);
    deadline.tv_nsec = static_cast<long>(
        (max_seconds - static_cast<double>(deadline.tv_sec)) * 1e9);
    sigtimedwait(&signals, nullptr, &deadline);
  } else {
    int signal = 0;
    sigwait(&signals, &signal);
  }

  server.stop();
  std::cout << "serve: " << server.queries_answered() << " queries answered, "
            << server.live_evals() << " live evaluations, "
            << server.probe_windows() << " probe windows\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "serve_cli: " << e.what() << "\n";
  return 1;
}
