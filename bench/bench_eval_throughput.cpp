// bench_eval_throughput: points/sec of the evaluation/persistence
// pipeline for million-evaluation design-space runs.  Five
// measurements:
//
//   eval      explore_cli's exhaustive sweep (search::run_sweep: chunked
//             job building, block cache ops and core::evaluate_batch —
//             the path every caller rides), cold (uncached) and as a
//             warm-cache rerun (pure key+lookup)
//   batch     the same mixed-variant requests through the scalar
//             reference path (evaluate_reference, one point at a time)
//             vs. core::evaluate_batch over engine-sized chunks with
//             reused scratch.  Both sides single-threaded: the raw
//             kernel-level comparison, advisory (the request walk is
//             memory-bound, so this ratio only opens up on SIMD builds)
//   persist   the same no-cache sweep unpersisted (the anchor) and
//             persisted through a RunLog with buffered group flushes;
//             the gap between the two is what the log costs
//   anneal    the annealing strategy at --walkers 1 (the old sequential
//             walker) vs. the parallel multi-walker front
//   report    explore::write_csv and write_ndjson over the sweep's full
//             result set on the engine's --threads team, rows/sec (the
//             median of 5 passes each), into a stream that drops the
//             bytes (rendering cost, not disk speed)
//
// Emits a BENCH_throughput.json with every number so CI can archive the
// perf trajectory.  Exits nonzero only when the batch and scalar paths
// disagree on the work they measured.
//
//   ./build/bench_eval_throughput                 # ~1.2M-grid-point space
//   ./build/bench_eval_throughput --scale smoke   # CI-sized space

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/app_params.hpp"
#include "core/eval_batch.hpp"
#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mergescale;

namespace {

std::vector<double> integer_grid(double count) {
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(count));
  for (double v = 1.0; v <= count; v += 1.0) grid.push_back(v);
  return grid;
}

/// Asymmetric-only space: every in-bounds (n, app, growth, r, rl) is a
/// distinct design point, so persisted points ≈ grid points that fit
/// their budget (no inert-axis duplicates hiding behind the cache).
explore::ScenarioSpec make_spec(const std::string& scale) {
  explore::ScenarioSpec spec;
  spec.name = "throughput";
  spec.apps = {core::presets::kmeans(), core::presets::fuzzy(),
               core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic(),
                  core::GrowthFunction::parallel()};
  spec.variants = {core::ModelVariant::kAsymmetric};
  if (scale == "smoke") {
    // 1 × 3 × 3 × 1 × 1 × 8 × 256 = 18,432 grid points, all in bounds.
    spec.chip_budgets = {256.0};
    spec.small_core_sizes = integer_grid(8.0);
    spec.sizes = integer_grid(256.0);
  } else {
    // 2 × 3 × 3 × 1 × 1 × 32 × 2048 = 1,179,648 grid points;
    // (1024 + 2048) × 32 × 9 = 884,736 of them fit their budget.
    spec.chip_budgets = {1024.0, 2048.0};
    spec.small_core_sizes = integer_grid(32.0);
    spec.sizes = integer_grid(2048.0);
  }
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SweepStats {
  std::uint64_t points = 0;
  double seconds = 0.0;
  double pps() const { return seconds > 0.0 ? points / seconds : 0.0; }
};

/// explore_cli's exhaustive sweep (search::run_sweep) over all of
/// `space`.  When `log` is non-null every fresh result is appended — the
/// persisted-sweep workload.
SweepStats sweep(explore::ExploreEngine& engine, const search::SearchSpace& space,
                 search::RunLog* log) {
  SweepStats stats;
  const auto start = std::chrono::steady_clock::now();
  // An exhaustive sweep knows its insert count up front; pre-sizing the
  // cache removes every mid-sweep rehash (no-op when already warm).
  engine.cache().reserve(space.size());
  stats.points = search::run_sweep(engine, space,
                                   search::ShardPlan(space.size(), 1).range(0),
                                   log)
                     .size();
  stats.seconds = seconds_since(start);
  return stats;
}

/// A stream buffer that counts the bytes written to it and drops them.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
};

/// Passes timed per report writer.  One pass over the full-scale result
/// set takes about 0.3 s, and single passes of one binary read from
/// 1.8M to 3.0M CSV rows/s back to back; the median of several settles
/// that spread.
constexpr int kReportPasses = 5;

/// What `anneal_speedup` reads when the walkers cannot overlap: a team of
/// one thread, or a host with one hardware thread.
constexpr const char* kSkippedOneThread = "skipped_one_thread";

/// Rows/sec of one report writer over `results`, the median of
/// kReportPasses passes; `bytes` gets the size of one pass.
SweepStats timed_report(const std::vector<explore::EvalResult>& results,
                        void (*write)(std::ostream&,
                                      const std::vector<explore::EvalResult>&,
                                      runtime::ThreadTeam*),
                        runtime::ThreadTeam& team, std::uint64_t& bytes) {
  std::vector<double> seconds;
  for (int pass = 0; pass < kReportPasses; ++pass) {
    CountingBuf sink;
    std::ostream os(&sink);
    const auto start = std::chrono::steady_clock::now();
    write(os, results, &team);
    seconds.push_back(seconds_since(start));
    bytes = sink.bytes;
  }
  std::nth_element(seconds.begin(), seconds.begin() + kReportPasses / 2,
                   seconds.end());
  SweepStats stats;
  stats.seconds = seconds[kReportPasses / 2];
  stats.points = results.size();
  return stats;
}

/// One engine-claim-block-shaped chunk of mixed-variant requests over
/// the paper's 256-BCE chip: all four model variants interleaved (so
/// grouping has real work to do), MineBench app parameters, r/rl swept
/// over the grid, including infeasible asymmetric (rl, r) pairs.
std::vector<core::EvalRequest> batch_requests() {
  const core::ModelVariant variants[] = {
      core::ModelVariant::kSymmetric, core::ModelVariant::kAsymmetric,
      core::ModelVariant::kSymmetricComm, core::ModelVariant::kAsymmetricComm};
  const std::vector<core::AppParams> apps = core::presets::minebench();
  std::vector<core::EvalRequest> requests;
  requests.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    core::EvalRequest request;
    request.variant = variants[i % 4];
    request.app = apps[i % apps.size()];
    request.r = 1.0 + static_cast<double>(i % 64);
    request.rl = 1.0 + static_cast<double>((i / 4) % 256);
    requests.push_back(std::move(request));
  }
  return requests;
}

SweepStats timed_anneal(const search::SearchSpace& space,
                        explore::EngineOptions engine_options,
                        std::size_t walkers, std::uint64_t budget) {
  explore::ExploreEngine engine(engine_options);
  search::SearchOptions options;
  options.strategy = search::Strategy::kAnneal;
  options.budget = budget;
  options.walkers = walkers;
  const auto start = std::chrono::steady_clock::now();
  const search::SearchOutcome outcome =
      search::run_search(engine, space, options);
  SweepStats stats;
  stats.points = outcome.evaluations;
  stats.seconds = seconds_since(start);
  return stats;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("bench_eval_throughput",
                "points/sec for cached/uncached evaluation, persisted "
                "search, and sequential vs parallel annealing");
  cli.opt("scale", std::string("full"), "full (~1.2M grid points) | smoke");
  cli.opt("threads", static_cast<long long>(0),
          "worker threads (0 = hardware concurrency)");
  cli.opt("walkers", static_cast<long long>(8),
          "parallel annealing walker count");
  cli.opt("flush-every", static_cast<long long>(1024),
          "binary log records per flush group");
  cli.opt("out", std::string("BENCH_throughput.json"), "JSON output path");
  cli.opt("work-dir", std::string(), "scratch dir (default: temp)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string scale = cli.get_string("scale");
  const explore::ScenarioSpec spec = make_spec(scale);
  const search::SearchSpace space(spec);
  explore::EngineOptions engine_options;
  engine_options.threads = static_cast<int>(cli.get_int("threads"));
  const auto flush_every =
      static_cast<std::size_t>(std::max<long long>(1, cli.get_int("flush-every")));

  std::string work = cli.get_string("work-dir");
  if (work.empty()) {
    work = (std::filesystem::temp_directory_path() /
            ("mergescale_throughput_" + std::to_string(::getpid())))
               .string();
  }
  std::filesystem::remove_all(work);

  std::cout << "space: " << space.size() << " grid points ("
            << scale << " scale)\n";

  // --- eval: batch pipeline, cold and warm cache ---------------------------
  explore::ExploreEngine engine(engine_options);

  // The multi-walker comparison measures *overlap*: walkers only overlap
  // on a team of more than one thread, and a single hardware thread has
  // no spare cycles to overlap into.  Either way the ratio measures
  // walker overhead, not the parallel front, so the raw numbers are
  // still measured and reported but the derived ratio is marked skipped.
  const bool one_thread =
      engine.threads() <= 1 || std::thread::hardware_concurrency() <= 1;
  if (one_thread) {
    std::cout << "note: one thread — anneal_speedup is reported as \""
              << kSkippedOneThread << "\"\n";
  }
  const SweepStats uncached = sweep(engine, space, nullptr);
  const SweepStats cached = sweep(engine, space, nullptr);
  std::cout << "eval:    uncached " << util::format_double(uncached.pps(), 0)
            << " pts/s, cached " << util::format_double(cached.pps(), 0)
            << " pts/s (" << uncached.points << " points, "
            << engine.threads() << " threads)\n";

  // --- batch: scalar reference loop vs. grouped SoA kernels ---------------
  // Both sides single-threaded over identical requests; the scalar side
  // is the pre-batch per-point API (validate + branchy formulas +
  // per-point law calls), the batch side is the grouped plane path the
  // engine and the sweeps now ride.  Advisory: both sides stream the
  // same 450-byte requests, so this ratio is memory-bound near 1x on a
  // scalar build and only opens up where the plane kernels vectorize
  // (the -march=x86-64-v3 CI build).
  const std::vector<core::EvalRequest> chunk = batch_requests();
  const std::uint64_t batch_passes = scale == "smoke" ? 48 : 512;
  double scalar_sink = 0.0;
  SweepStats scalar_stats;
  {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t pass = 0; pass < batch_passes; ++pass) {
      for (const core::EvalRequest& request : chunk) {
        if (const auto point = core::evaluate_reference(request)) {
          scalar_sink += point->speedup;
        }
      }
    }
    scalar_stats.points = chunk.size() * batch_passes;
    scalar_stats.seconds = seconds_since(start);
  }
  double batch_sink = 0.0;
  SweepStats batch_stats;
  {
    core::EvalBatch scratch;
    std::vector<std::optional<core::DesignPoint>> points(chunk.size());
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t pass = 0; pass < batch_passes; ++pass) {
      core::evaluate_batch(chunk, points, scratch);
      for (const auto& point : points) {
        if (point) batch_sink += point->speedup;
      }
    }
    batch_stats.points = chunk.size() * batch_passes;
    batch_stats.seconds = seconds_since(start);
  }
  if (scalar_sink != batch_sink) {
    // Bit-exactness is pinned by tests/core/eval_batch_test.cpp; this
    // guards the bench itself against measuring diverging work.
    std::cerr << "FAIL: batch and scalar checksums diverge ("
              << batch_sink << " vs " << scalar_sink << ")\n";
    return 1;
  }
  const double kernel_speedup =
      scalar_stats.pps() > 0.0 ? batch_stats.pps() / scalar_stats.pps() : 0.0;
  std::cout << "batch:   scalar " << util::format_double(scalar_stats.pps(), 0)
            << " pts/s, evaluate_batch "
            << util::format_double(batch_stats.pps(), 0) << " pts/s — "
            << util::format_double(kernel_speedup, 2) << "x ("
            << batch_stats.points << " points, 1 thread)\n";

  // --- persist: unpersisted anchor vs. the binary run log ----------------
  // The workload of a fresh `explore_cli --run-dir <dir>` sweep over a
  // spec that repeats no point, which explore_cli runs without the memo
  // cache: every point is distinct, so the cache would be pure per-point
  // overhead here — it is read back at *resume* time, not during a
  // fresh recording.
  explore::EngineOptions persist_options = engine_options;
  persist_options.use_cache = false;
  SweepStats bare;
  {
    // Unpersisted anchor: the same sweep with no log at all.  Whatever a
    // persisted run takes beyond this is what the log costs.
    explore::ExploreEngine fresh(persist_options);
    bare = sweep(fresh, space, nullptr);
  }
  SweepStats binary;
  {
    explore::ExploreEngine fresh(persist_options);
    search::RunLog log(work + "/binary",
                       {search::LogFormat::kBinary, flush_every});
    binary = sweep(fresh, space, &log);
  }
  const auto binary_bytes = std::filesystem::file_size(
      search::RunLog::binary_results_path(work + "/binary"));
  std::cout << "persist: bare " << util::format_double(bare.pps(), 0)
            << " pts/s, binary/" << flush_every << " "
            << util::format_double(binary.pps(), 0) << " pts/s ("
            << binary_bytes << " B)\n";

  // --- anneal: sequential walker vs. parallel front ----------------------
  const std::uint64_t budget = scale == "smoke" ? 4000 : 50000;
  const auto walkers =
      static_cast<std::size_t>(std::max<long long>(2, cli.get_int("walkers")));
  const SweepStats seq = timed_anneal(space, engine_options, 1, budget);
  const SweepStats par = timed_anneal(space, engine_options, walkers, budget);
  const double anneal_speedup = seq.pps() > 0.0 ? par.pps() / seq.pps() : 0.0;
  std::cout << "anneal:  1 walker " << util::format_double(seq.pps(), 0)
            << " evals/s, " << walkers << " walkers "
            << util::format_double(par.pps(), 0) << " evals/s — "
            << util::format_double(anneal_speedup, 2) << "x\n";

  // --- report: the sweep's CSV and NDJSON writers ------------------------
  std::uint64_t csv_bytes = 0;
  std::uint64_t ndjson_bytes = 0;
  SweepStats csv_stats;
  SweepStats ndjson_stats;
  {
    const std::vector<explore::EvalResult> results = search::run_sweep(
        engine, space, search::ShardPlan(space.size(), 1).range(0));
    // Rendered on the engine's team, as explore_cli renders its reports.
    csv_stats =
        timed_report(results, explore::write_csv, engine.team(), csv_bytes);
    ndjson_stats = timed_report(results, explore::write_ndjson, engine.team(),
                                ndjson_bytes);
  }
  std::cout << "report:  csv " << util::format_double(csv_stats.pps(), 0)
            << " rows/s (" << csv_bytes << " B), ndjson "
            << util::format_double(ndjson_stats.pps(), 0) << " rows/s ("
            << ndjson_bytes << " B)\n";

  std::filesystem::remove_all(work);

  {
    std::ofstream json(cli.get_string("out"));
    json << "{\n"
         << "  \"scale\": \"" << scale << "\",\n"
         << "  \"grid_points\": " << space.size() << ",\n"
         << "  \"threads\": " << engine.threads() << ",\n"
         << "  \"eval_uncached_pps\": " << uncached.pps() << ",\n"
         << "  \"eval_cached_pps\": " << cached.pps() << ",\n"
         << "  \"eval_scalar_pps\": " << scalar_stats.pps() << ",\n"
         << "  \"eval_batch_pps\": " << batch_stats.pps() << ",\n"
         << "  \"kernel_speedup\": " << kernel_speedup << ",\n"
         << "  \"persist_points\": " << binary.points << ",\n"
         << "  \"persist_bare_pps\": " << bare.pps() << ",\n"
         << "  \"persist_binary_pps\": " << binary.pps() << ",\n"
         << "  \"persist_binary_bytes\": " << binary_bytes << ",\n"
         << "  \"anneal_budget\": " << budget << ",\n"
         << "  \"anneal_walkers\": " << walkers << ",\n"
         << "  \"anneal_seq_pps\": " << seq.pps() << ",\n"
         << "  \"anneal_par_pps\": " << par.pps() << ",\n"
         << "  \"report_rows\": " << csv_stats.points << ",\n"
         << "  \"report_passes\": " << kReportPasses << ",\n"
         << "  \"report_csv_pps\": " << csv_stats.pps() << ",\n"
         << "  \"report_csv_bytes\": " << csv_bytes << ",\n"
         << "  \"report_ndjson_pps\": " << ndjson_stats.pps() << ",\n"
         << "  \"report_ndjson_bytes\": " << ndjson_bytes << ",\n"
         << "  \"anneal_speedup\": "
         << (one_thread ? "\"" + std::string(kSkippedOneThread) + "\""
                        : std::to_string(anneal_speedup))
         << "\n"
         << "}\n";
    json.flush();
    if (!json.good()) {
      std::cerr << "cannot write " << cli.get_string("out") << "\n";
      return 1;
    }
  }
  std::cout << "wrote " << cli.get_string("out") << "\n";

  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_eval_throughput: " << e.what() << "\n";
  return 1;
}
