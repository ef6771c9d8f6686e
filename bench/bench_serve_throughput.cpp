// bench_serve_throughput: queries/sec of the serving layer over an
// in-memory archive, the perf anchor for exploration-as-a-service.
// Worker threads hammer the full in-process query path — parse, archive
// scan / point lookup, rendering — in two regimes:
//
//   1 client  one thread, one query in flight (the single-worker
//             baseline the load test's no-collapse criterion refers to)
//   N clients --clients threads at once, as N connections' sessions run
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
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mergescale;

namespace {

/// The scenario every regime serves: an asymmetric sweep big enough
/// that topk/pareto scans do real work.
explore::ScenarioSpec make_spec() {
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
  return spec;
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
                "queries/sec of the in-process serving core with one "
                "client and with --clients clients");
  cli.opt("clients", static_cast<long long>(8), "hammering threads");
  cli.opt("seconds", 0.5, "wall clock per regime");
  cli.opt("out", std::string("BENCH_serve.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return 0;

  const int clients = static_cast<int>(cli.get_int("clients"));
  const double seconds = cli.get_double("seconds");

  const explore::ScenarioSpec spec = make_spec();
  // Canonical flat indices, as explore_cli records them: eval finds an
  // on-grid point by its index.
  const search::SearchSpace space(spec);
  explore::ExploreEngine engine;
  const std::vector<explore::EvalResult> records = search::run_sweep(
      engine, space, search::ShardPlan(space.size(), 1).range(0));
  std::cout << "archive: " << records.size() << " records\n";
  // Each server gets its own in-memory archive over the same records, as
  // serve_cli builds one for a directory without archive.msca.
  auto served = [&records, &spec] {
    return serve::ServedRun{
        "(in-memory)", "bench", spec,
        serve::ServedArchive(search::ArchiveReader::from_records(records),
                             spec),
        {}};
  };

  auto measure = [&](int threads) {
    serve::QueryServer server(served(), nullptr, serve::ServerOptions{});
    return hammer(server, threads, seconds);
  };
  const double qps_1 = measure(1);
  const double qps_n = measure(clients);

  std::cout << "serve:   1 client " << util::format_double(qps_1, 0)
            << " q/s, " << clients << " clients "
            << util::format_double(qps_n, 0) << " q/s\n";

  std::ofstream json(cli.get_string("out"));
  json << "{\n"
       << "  \"archive_records\": " << records.size() << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"seconds_per_regime\": " << seconds << ",\n"
       << "  \"qps_1_client\": " << qps_1 << ",\n"
       << "  \"qps_clients\": " << qps_n << "\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::cerr << "cannot write " << cli.get_string("out") << "\n";
    return 1;
  }
  std::cout << "wrote " << cli.get_string("out") << "\n";

  // N concurrent clients must not collapse below the single-client
  // baseline: that is the acceptance bar the load test also holds the
  // full server to, checked here on the in-process core.
  if (qps_n < qps_1 * 0.5) {
    std::cerr << "FAIL: " << clients << "-client throughput "
              << util::format_double(qps_n, 0)
              << " q/s collapsed below half the 1-client baseline "
              << util::format_double(qps_1, 0) << " q/s\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_serve_throughput: " << e.what() << "\n";
  return 1;
}
