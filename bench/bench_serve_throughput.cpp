// bench_serve_throughput: queries/sec of the serving layer over an
// in-memory archive, the perf anchor for exploration-as-a-service.
// Worker threads hammer the full in-process query path — parse, ticket
// gate, archive scan / point lookup, rendering — under three admission
// regimes:
//
//   gate=1    concurrency pinned to one ticket (the single-worker
//             baseline the load test's no-collapse criterion refers to)
//   gate=N    concurrency pinned to the client thread count (a static
//             "just trust the box" configuration)
//   probe     the ThroughputProbe controller governing the limit from
//             live window measurements (serve_cli's default)
//
// The socket layer is deliberately bypassed (QueryServer::execute_line):
// this bench isolates what the serving core can sustain; transport cost
// is the saturation test's and CI smoke job's concern.  Emits
// BENCH_serve.json for the CI perf archive.
//
//   ./build/bench_serve_throughput --seconds 0.5 --clients 8

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/app_params.hpp"
#include "explore/engine.hpp"
#include "search/archive.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mergescale;

namespace {

/// The records every regime serves: an asymmetric sweep big enough that
/// topk/pareto scans do real work.
std::vector<explore::EvalResult> make_records(serve::ServedRun* run) {
  explore::ScenarioSpec spec;
  spec.name = "serve-bench";
  spec.apps = {core::presets::kmeans(), core::presets::fuzzy(),
               core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic()};
  spec.variants = {core::ModelVariant::kAsymmetric};
  spec.chip_budgets = {128.0, 256.0};
  spec.small_core_sizes = {1.0, 2.0, 4.0, 8.0, 16.0};
  spec.sizes = {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};

  run->dir = "(in-memory)";
  run->config = "bench";
  run->spec = spec;
  explore::ExploreEngine engine;
  return engine.run(spec);
}

/// Queries/sec of `clients` threads driving the mixed workload through
/// one server for `seconds` of wall clock.
double hammer(serve::QueryServer& server, int clients, double seconds) {
  const std::vector<std::string> mix = {
      "best", "topk 5", "pareto area",
      "eval variant=asymmetric n=256 app=kmeans growth=linear r=4 rl=16",
      "stats"};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        server.execute_line(mix[i++ % mix.size()]);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed > 0.0 ? static_cast<double>(completed.load()) / elapsed : 0.0;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("bench_serve_throughput",
                "queries/sec of the in-process serving core under pinned "
                "and probe-governed admission");
  cli.opt("clients", static_cast<long long>(8), "hammering threads");
  cli.opt("seconds", 0.5, "wall clock per regime");
  cli.opt("probe-window-ms", static_cast<long long>(50),
          "probe measurement window (probe regime)");
  cli.opt("out", std::string("BENCH_serve.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return 0;

  const int clients = static_cast<int>(cli.get_int("clients"));
  const double seconds = cli.get_double("seconds");

  serve::ServedRun run;
  const std::vector<explore::EvalResult> records = make_records(&run);
  std::cout << "archive: " << records.size() << " records\n";
  // Each server gets its own in-memory archive over the same records, as
  // serve_cli builds one for a directory without archive.msca.
  auto served = [&records] {
    return serve::ServedRecords{search::ArchiveReader::from_records(records),
                                {}};
  };

  auto pinned = [&](int level) {
    serve::ServerOptions options;
    options.initial_concurrency = level;
    options.probe.min_concurrency = level;
    options.probe.max_concurrency = level;
    serve::QueryServer server(run, served(), nullptr, options);
    return hammer(server, clients, seconds);
  };
  const double qps_gate1 = pinned(1);
  const double qps_gateN = pinned(clients);

  serve::ServerOptions options;
  options.initial_concurrency = 2;
  options.probe.min_concurrency = 1;
  options.probe.max_concurrency = clients * 2;
  options.probe_window =
      std::chrono::milliseconds(cli.get_int("probe-window-ms"));
  serve::QueryServer probed(run, served(), nullptr, options);
  probed.start();  // the probe loop only runs on a started server
  const double qps_probe = hammer(probed, clients, seconds);
  const std::uint64_t windows = probed.probe_windows();
  const int converged = probed.concurrency_limit();
  probed.stop();

  std::cout << "serve:   gate=1 " << util::format_double(qps_gate1, 0)
            << " q/s, gate=" << clients << " "
            << util::format_double(qps_gateN, 0) << " q/s, probe "
            << util::format_double(qps_probe, 0) << " q/s (limit "
            << converged << " after " << windows << " windows)\n";

  std::ofstream json(cli.get_string("out"));
  json << "{\n"
       << "  \"archive_records\": " << records.size() << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"seconds_per_regime\": " << seconds << ",\n"
       << "  \"qps_gate1\": " << qps_gate1 << ",\n"
       << "  \"qps_gate_clients\": " << qps_gateN << ",\n"
       << "  \"qps_probe\": " << qps_probe << ",\n"
       << "  \"probe_windows\": " << windows << ",\n"
       << "  \"probe_final_limit\": " << converged << "\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::cerr << "cannot write " << cli.get_string("out") << "\n";
    return 1;
  }
  std::cout << "wrote " << cli.get_string("out") << "\n";

  // The probe regime must not collapse below the single-ticket
  // baseline: that is the acceptance bar the load test also holds the
  // full server to, checked here on the in-process core.
  if (qps_probe < qps_gate1 * 0.5) {
    std::cerr << "FAIL: probe-governed throughput "
              << util::format_double(qps_probe, 0)
              << " q/s collapsed below half the gate=1 baseline "
              << util::format_double(qps_gate1, 0) << " q/s\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_serve_throughput: " << e.what() << "\n";
  return 1;
}
