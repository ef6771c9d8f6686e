// bench_archive_query: per-query latency of the columnar archive's
// engine against the path it replaced — sequentially loading the run
// log and scanning every record per query (the O(archive) serve scan).
// Synthesizes a ~1M-record run, persists it both ways (binary run log,
// columnar archive), then times the three classes serve asks of it:
//
//   best        highest-speedup feasible point
//   topk        top-10 by (speedup desc, index asc)
//   find        the row of one index and design point (serve's eval)
//
// For each class the baseline is a full scan over the materialized
// record vector (what answer_topk did under the archive lock before the
// archive engine existed; for find, a walk to the first record with
// that index and DesignKey) and the archive number is the same question
// answered through ArchiveReader on an opened file — zone maps pruning
// the blocks, columns read instead of records.  Cold-start costs
// (RunLog::load vs ArchiveReader::open) are reported separately.
//
// Emits BENCH_archive.json and enforces --min-query-speedup (default
// 10x) on the worst of the three classes, the acceptance bar for the
// archive redesign.
//
//   ./build/bench_archive_query --records 1000000

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/design_key.hpp"
#include "search/run_log.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace mergescale;

namespace {

/// A synthetic exhaustive sweep: unique flat indices, label columns
/// cycling a realistic-size dictionary, speedup trending upward with
/// the index (bigger configurations win, as in the real sweeps) so zone
/// maps carry signal, with jitter so blocks overlap.
std::vector<explore::EvalResult> synth_records(std::size_t count) {
  const std::string apps[] = {"kmeans", "fuzzy", "hop"};
  const std::string growths[] = {"linear", "log"};
  const double budgets[] = {64.0, 128.0, 256.0, 512.0};
  util::Xoshiro256 rng(20260808);
  std::vector<explore::EvalResult> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    explore::EvalResult r;
    r.index = i;
    r.scenario = "archive-bench";
    r.variant = (i % 2) ? core::ModelVariant::kAsymmetric
                        : core::ModelVariant::kSymmetric;
    r.n = budgets[i % 4];
    r.app = apps[i % 3];
    r.growth = growths[i % 2];
    r.r = 1.0 + static_cast<double>(i % 8);
    r.rl = (i % 2) ? 4.0 + static_cast<double>(i % 6) : 0.0;
    r.feasible = (i % 37) != 0;
    r.cores = r.feasible ? rng.uniform(1.0, 300.0) : 0.0;
    r.speedup =
        r.feasible
            ? 160.0 * (static_cast<double>(i) / static_cast<double>(count)) +
                  rng.uniform(0.0, 40.0)
            : 0.0;
    records.push_back(std::move(r));
  }
  return records;
}

using Clock = std::chrono::steady_clock;

/// Mean microseconds per call of `fn()` over `reps` calls.
template <typename Fn>
double time_us(int reps, Fn&& fn) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto elapsed = Clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() / reps;
}

/// Linear-scan reference for find(): the first record with `index`
/// whose design point is `key`.
const explore::EvalResult* scan_find(
    const std::vector<explore::EvalResult>& records, std::uint64_t index,
    const search::DesignKey& key) {
  for (const auto& r : records) {
    if (r.index == index && search::DesignKey::of(r) == key) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_archive_query",
                "columnar-archive query latency vs sequential load()+scan");
  cli.opt("records", static_cast<long long>(1000000),
          "synthetic run size (records)");
  cli.opt("scan-reps", static_cast<long long>(10),
          "repetitions per full-scan baseline measurement");
  cli.opt("query-reps", static_cast<long long>(200),
          "repetitions per archive-query measurement");
  cli.opt("min-query-speedup", 10.0,
          "fail unless every query class beats the scan by this factor");
  cli.opt("out", std::string("BENCH_archive.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return 0;

  const auto count = static_cast<std::size_t>(cli.get_int("records"));
  const int scan_reps = static_cast<int>(cli.get_int("scan-reps"));
  const int query_reps = static_cast<int>(cli.get_int("query-reps"));

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mergescale_bench_archive_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::cout << "synthesizing " << count << " records...\n";
  const std::vector<explore::EvalResult> records = synth_records(count);
  {
    search::RunLog log(dir, {search::LogFormat::kBinary, 4096});
    for (const auto& r : records) log.append(r);
  }
  const std::string archive_path = search::RunLog::archive_path(dir);
  const search::ArchiveStats stats = search::write_archive(
      archive_path, records);
  std::cout << "archived: " << stats.rows << " rows, " << stats.blocks
            << " blocks, " << stats.bytes << " bytes\n";

  // Cold start: materialize the log vs open the archive (header + eager
  // sections only).
  const double load_ms =
      time_us(1, [&] { search::RunLog::load(dir); }) / 1000.0;
  const double open_ms =
      time_us(1, [&] { search::ArchiveReader::open(archive_path); }) / 1000.0;

  const search::ArchiveReader reader = search::ArchiveReader::open(
      archive_path);
  // Point lookups spread uniformly over the archive, as serve's evals
  // are: the scan walks half the records on average.
  std::vector<const explore::EvalResult*> probes;
  {
    util::Xoshiro256 rng(7);
    for (int i = 0; i < query_reps; ++i) {
      probes.push_back(&records[static_cast<std::size_t>(rng.bounded(count))]);
    }
  }
  std::size_t next_probe = 0;
  const auto probe = [&] { return probes[next_probe++ % probes.size()]; };

  // Sanity before timing: the archive answers the scan's answers.
  {
    const auto want = explore::top_k(records, 10);
    const auto got = reader.top_k(10);
    if (got.size() != want.size() ||
        (!want.empty() && (got[0].index != want[0].index ||
                           got[0].speedup != want[0].speedup))) {
      std::cerr << "FAIL: archive top_k disagrees with the reference scan\n";
      return 1;
    }
    for (const explore::EvalResult* p : probes) {
      const search::DesignKey key = search::DesignKey::of(*p);
      const auto found = reader.find(p->index, key);
      const explore::EvalResult* scanned = scan_find(records, p->index, key);
      if (!found || scanned == nullptr || found->index != scanned->index ||
          found->speedup != scanned->speedup) {
        std::cerr << "FAIL: archive find disagrees with the reference scan\n";
        return 1;
      }
    }
  }

  const double scan_best_us =
      time_us(scan_reps, [&] { explore::best_result(records); });
  const double archive_best_us = time_us(query_reps, [&] { reader.best(); });
  const double scan_topk_us =
      time_us(scan_reps, [&] { explore::top_k(records, 10); });
  const double archive_topk_us =
      time_us(query_reps, [&] { reader.top_k(10); });
  // The scan is inline and pure: keep its answer so it is not elided.
  const explore::EvalResult* volatile scanned = nullptr;
  const double scan_find_us = time_us(scan_reps, [&] {
    const explore::EvalResult* p = probe();
    scanned = scan_find(records, p->index, search::DesignKey::of(*p));
  });
  next_probe = 0;
  const double archive_find_us = time_us(query_reps, [&] {
    const explore::EvalResult* p = probe();
    reader.find(p->index, search::DesignKey::of(*p));
  });

  const double speedup_best = scan_best_us / archive_best_us;
  const double speedup_topk = scan_topk_us / archive_topk_us;
  const double speedup_find = scan_find_us / archive_find_us;
  const double worst =
      std::min({speedup_best, speedup_topk, speedup_find});

  const auto row = [](const char* name, double scan_us, double archive_us) {
    std::cout << "  " << name << ": scan "
              << util::format_double(scan_us, 1) << " us, archive "
              << util::format_double(archive_us, 1) << " us ("
              << util::format_double(scan_us / archive_us, 1) << "x)\n";
  };
  std::cout << "cold start: load() " << util::format_double(load_ms, 1)
            << " ms, open() " << util::format_double(open_ms, 2) << " ms\n";
  row("best     ", scan_best_us, archive_best_us);
  row("topk10   ", scan_topk_us, archive_topk_us);
  row("find     ", scan_find_us, archive_find_us);

  std::ofstream json(cli.get_string("out"));
  json << "{\n"
       << "  \"records\": " << stats.rows << ",\n"
       << "  \"blocks\": " << stats.blocks << ",\n"
       << "  \"archive_bytes\": " << stats.bytes << ",\n"
       << "  \"load_ms\": " << load_ms << ",\n"
       << "  \"open_ms\": " << open_ms << ",\n"
       << "  \"scan_best_us\": " << scan_best_us << ",\n"
       << "  \"archive_best_us\": " << archive_best_us << ",\n"
       << "  \"scan_topk_us\": " << scan_topk_us << ",\n"
       << "  \"archive_topk_us\": " << archive_topk_us << ",\n"
       << "  \"scan_find_us\": " << scan_find_us << ",\n"
       << "  \"archive_find_us\": " << archive_find_us << ",\n"
       << "  \"query_speedup_best\": " << speedup_best << ",\n"
       << "  \"query_speedup_topk\": " << speedup_topk << ",\n"
       << "  \"query_speedup_find\": " << speedup_find << ",\n"
       << "  \"query_speedup_min\": " << worst << "\n"
       << "}\n";
  json.flush();
  std::filesystem::remove_all(dir);
  if (!json.good()) {
    std::cerr << "cannot write " << cli.get_string("out") << "\n";
    return 1;
  }
  std::cout << "wrote " << cli.get_string("out") << "\n";

  const double bar = cli.get_double("min-query-speedup");
  if (worst < bar) {
    std::cerr << "FAIL: worst query-class speedup "
              << util::format_double(worst, 1) << "x is under the "
              << util::format_double(bar, 1) << "x acceptance bar\n";
    return 1;
  }
  return 0;
}
