// explore_cli: design-space exploration driver — the end-to-end face of
// src/explore/ and src/search/.  One invocation expands a declarative
// scenario (chip budgets × apps × growth functions × model variants ×
// topologies), then either enumerates it exhaustively over a thread team
// or searches it adaptively (random / hill-climb / anneal / genetic /
// pareto) under a hard evaluation budget.  The pareto strategy trades
// speedup against a cost metric (--cost-metric area|cores) and reports
// its incremental non-dominated archive with a hypervolume summary.
// Results stream into an optional run directory as an
// append-only binary log, so a killed run resumed with --resume
// continues where it stopped instead of recomputing.
//
//   ./build/explore_cli                                # paper defaults
//   ./build/explore_cli --apps kmeans,hop --budgets 64,256,1024
//       --variants symmetric,asymmetric,symmetric-comm
//       --growths linear,log --topologies mesh,bus --threads 8
//       --repeat 2 --out /tmp/explore
//   ./build/explore_cli --strategy hill-climb --budget 500
//       --run-dir /tmp/run1              # persist fresh evaluations
//   ./build/explore_cli --strategy hill-climb --budget 500
//       --resume /tmp/run1               # warm-start from the run log
//   ./build/explore_cli --strategy anneal --walkers 16 --budget 100000
//       --run-dir /tmp/run2 --flush-every 1024
//                                        # million-point-scale persistence
//   ./build/explore_cli --compact --run-dir /tmp/run2
//                                        # dedup + rewrite the run log
//   ./build/explore_cli --dump --run-dir /tmp/run2 | grep hop
//                                        # the records, one JSON per line
//   for i in 0 1 2 3; do                 # multi-process sharded sweep
//     ./build/explore_cli --shard $i/4 --run-dir /tmp/shards &
//   done; wait                           # one results.shard-$i.msbin each
//   ./build/explore_cli --merge --run-dir /tmp/shards
//                                        # union + dedup into one log
//   ./build/explore_cli --archive --run-dir /tmp/shards
//                                        # rewrite the merged log into a
//                                        # columnar archive.msca
//
// Writes <out>.csv and <out>.ndjson (exhaustive runs), and
// <dir>/results.msbin (results.shard-<i>.msbin under --shard) +
// <dir>/meta.json when persistence is on.  --archive replaces the
// result logs with <dir>/archive.msca (search/archive): column-per-field
// blocks sorted by flat index with per-block zone maps, which serve_cli
// and resume read back without replaying a row-per-record log.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "util/cli.hpp"
#include "util/io_env.hpp"

using namespace mergescale;

namespace {

explore::CostMetric cost_metric_from(const std::string& name) {
  if (name == "area") return explore::CostMetric::kCoreArea;
  if (name == "cores") return explore::CostMetric::kCoreCount;
  throw std::invalid_argument("unknown cost metric: " + name +
                              " (expected area|cores)");
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Canonical fingerprint of the options a resume must replay under: the
/// axes that define the search space (explore::to_config), plus — for
/// the adaptive strategies — everything that shapes the proposal
/// sequence (strategy, seed, batch).  Resuming under a different space
/// would silently warm the cache with foreign points; resuming under a
/// different proposal sequence would charge the prior run's spend
/// against an unrelated trajectory.  Budget is deliberately *not*
/// pinned: extending a finished search with a larger budget is a
/// legitimate continuation.  A sharded run additionally pins the shard
/// *count* (the partition of the space / the walker-group derivation);
/// the shard *index* lives in the result-file name, so all K processes
/// share one meta record.
std::string run_config(const util::Cli& cli) {
  std::string config = explore::to_config(
      {cli.get_string("apps"), cli.get_string("budgets"),
       cli.get_string("growths"), cli.get_string("variants"),
       cli.get_string("topologies"), cli.get_string("small-cores"),
       cli.get_string("sizes"), cli.get_double("comp-share"),
       cli.get_double("f"), cli.get_double("fcon"), cli.get_double("fored")});
  const std::string strategy = cli.get_string("strategy");
  explore::append_config_token(config, "strategy", strategy);
  const auto pin = [&cli, &config](const char* key) {
    explore::append_config_token(config, key,
                                 std::to_string(cli.get_int(key)));
  };
  if (strategy != "exhaustive") {
    pin("seed");
    pin("batch");
  }
  // The walker count shapes the annealing proposal sequence (one
  // candidate per walker per round), so a resume must replay under the
  // same value.  The flush group does *not*: it only decides when the
  // same records reach disk.
  if (strategy == "anneal") pin("walkers");
  // Population shapes the generation batches and the cost metric shapes
  // the pareto parent pool, so both are part of the proposal sequence
  // those strategies would replay on resume.
  if (strategy == "genetic" || strategy == "pareto") pin("population");
  if (strategy == "pareto") {
    explore::append_config_token(config, "cost-metric",
                                 cli.get_string("cost-metric"));
  }
  if (const std::string shard = cli.get_string("shard"); !shard.empty()) {
    config += explore::shard_config_token(
        search::parse_shard_spec(shard).count);
  }
  return config;
}

/// Runs `jobs` in chunks, appending each chunk's fresh (non-cached)
/// results to `log` as soon as the chunk completes — the checkpoint
/// granularity a killed exhaustive run resumes at.  Without a log there
/// is nothing to checkpoint, so the whole batch goes to the engine in
/// one dispatch (no per-chunk barriers or job copies).
std::vector<explore::EvalResult> run_chunked(explore::ExploreEngine& engine,
                                             std::vector<explore::EvalJob> jobs,
                                             search::RunLog* log,
                                             std::size_t chunk = 512) {
  if (log == nullptr) return engine.run(jobs);
  std::vector<explore::EvalResult> results;
  results.reserve(jobs.size());
  for (std::size_t begin = 0; begin < jobs.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, jobs.size());
    std::vector<explore::EvalJob> slice(jobs.begin() + begin,
                                        jobs.begin() + end);
    for (std::size_t i = 0; i < slice.size(); ++i) slice[i].index = i;
    std::vector<explore::EvalResult> part = engine.run(slice);
    for (std::size_t i = 0; i < part.size(); ++i) {
      part[i].index = begin + i;  // restore global expansion order
      if (log != nullptr && !part[i].from_cache) log->append(part[i]);
      results.push_back(std::move(part[i]));
    }
  }
  return results;
}

/// Exhaustive sweep over one shard's contiguous flat-index range of
/// `space`, chunked like run_chunked.  Result (and log-record) indices
/// are the *global* flat indices, so the union of all shards' logs is
/// indistinguishable from a single process recording the whole space.
/// Out-of-bounds grid points (size > budget) are skipped, mirroring the
/// search funnel.
std::vector<explore::EvalResult> run_shard_range(
    explore::ExploreEngine& engine, const search::SearchSpace& space,
    const search::ShardRange& range, search::RunLog* log,
    std::size_t chunk = 8192) {
  std::vector<explore::EvalResult> results;
  std::vector<explore::EvalJob> slice;
  std::vector<std::uint64_t> flats;
  for (std::uint64_t begin = range.begin; begin < range.end; begin += chunk) {
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + chunk, range.end);
    slice.clear();
    flats.clear();
    for (std::uint64_t flat = begin; flat < end; ++flat) {
      explore::EvalJob job;
      if (!space.job_at(space.decode(flat), &job)) continue;
      job.index = slice.size();
      slice.push_back(std::move(job));
      flats.push_back(flat);
    }
    std::vector<explore::EvalResult> part = engine.run(slice);
    for (std::size_t i = 0; i < part.size(); ++i) {
      part[i].index = static_cast<std::size_t>(flats[i]);
      if (log != nullptr && !part[i].from_cache) log->append(part[i]);
      results.push_back(std::move(part[i]));
    }
  }
  if (log != nullptr) log->flush();
  return results;
}

/// The run directory an action flag (--compact, --archive, --dump)
/// works on: --run-dir, else --resume.
std::string action_dir(const util::Cli& cli, const std::string& action) {
  const std::string dir = cli.get_string("run-dir").empty()
                              ? cli.get_string("resume")
                              : cli.get_string("run-dir");
  if (dir.empty()) {
    throw std::invalid_argument(action + " needs --run-dir <dir>");
  }
  return dir;
}

/// Writes one report file through `write`.  False, after naming the file
/// on stderr, when it cannot be created or a write (the final flush
/// included) fails — a full disk must not pass for a written report.
template <typename Write>
bool write_report(const std::string& path, Write write) {
  std::ofstream file(path);
  if (file) {
    write(file);
    file.close();
  }
  if (file) return true;
  std::cerr << "explore_cli: cannot write " << path << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("explore_cli",
                "parallel design-space exploration: expand a scenario spec, "
                "evaluate it over a thread team with memoization, and report "
                "best / top-k / Pareto-frontier designs");
  cli.opt("apps", std::string("kmeans,fuzzy,hop"),
          "comma list: kmeans|fuzzy|hop|custom");
  cli.opt("budgets", std::string("64,256"), "comma list of chip budgets (BCEs)");
  cli.opt("growths", std::string("linear"),
          "comma list: linear|log|parallel");
  cli.opt("variants", std::string("symmetric,asymmetric,symmetric-comm"),
          "comma list: symmetric|asymmetric|symmetric-comm|asymmetric-comm");
  cli.opt("topologies", std::string("mesh"),
          "comma list: bus|ring|mesh|torus|crossbar (comm variants)");
  cli.opt("small-cores", std::string("1,4,16"),
          "comma list of small-core sizes r (asymmetric variants)");
  cli.opt("sizes", std::string(),
          "comma list of candidate core sizes (empty = powers of two)");
  cli.opt("comp-share", 0.5, "fcomp/(fcomp+fcomm) split (comm variants)");
  cli.opt("f", 0.99, "parallel fraction (apps=custom)");
  cli.opt("fcon", 0.60, "constant serial share (apps=custom)");
  cli.opt("fored", 0.80, "reduction growth coefficient (apps=custom)");
  cli.opt("threads", static_cast<long long>(0),
          "worker threads (0 = hardware concurrency)");
  cli.opt("repeat", static_cast<long long>(1),
          "run the sweep this many times (later runs hit the memo cache)");
  cli.opt("top", static_cast<long long>(5), "top-k designs to print");
  cli.opt("cost", std::string("area"),
          "Pareto cost metric: area | cores");
  cli.opt("out", std::string("explore_results"),
          "output prefix for <out>.csv and <out>.ndjson");
  cli.opt("strategy", std::string("exhaustive"),
          "exhaustive|random|hill-climb|anneal|genetic|pareto");
  cli.opt("budget", static_cast<long long>(2000),
          "max unique evaluations for the adaptive strategies (hard cap)");
  cli.opt("seed", static_cast<long long>(1), "search RNG seed");
  cli.opt("batch", static_cast<long long>(64),
          "random-search proposals per round");
  cli.opt("walkers", static_cast<long long>(8),
          "annealing: interacting walkers (one batch per round)");
  cli.opt("population", static_cast<long long>(32),
          "genetic/pareto individuals per generation");
  cli.opt("cost-metric", std::string("area"),
          "search Pareto-archive cost axis: area | cores");
  cli.opt("run-dir", std::string(),
          "persist fresh evaluations to <dir>/results.msbin");
  cli.opt("resume", std::string(),
          "resume from a previous --run-dir (implies --run-dir <dir>)");
  cli.opt("log-format", std::string("binary"),
          "run-log encoding: binary, the only one (--dump prints NDJSON)");
  cli.opt("flush-every", static_cast<long long>(1),
          "run-log records per flush group (crash loses at most one group)");
  cli.flag("fsync",
           "fsync every flushed run-log group: the crash window holds "
           "under power loss, not just process death, at one fsync per "
           "group");
  cli.opt("shard", std::string(),
          "run shard i of a K-process exploration as i/K: exhaustive "
          "shards own contiguous slices of the space, adaptive shards "
          "are seed-derived walker groups; results go to "
          "<run-dir>/results.shard-i.msbin");
  cli.flag("merge",
           "union --run-dir's shard logs (plus --merge-from dirs) into "
           "one deduplicated results.msbin, then exit");
  cli.opt("merge-from", std::string(),
          "comma list of additional recorded run dirs to union into "
          "--run-dir during --merge (configs must match)");
  cli.flag("compact",
           "rewrite --run-dir's log, dropping duplicate design points, "
           "then exit");
  cli.flag("archive",
           "rewrite --run-dir's merged, deduplicated records into a "
           "columnar archive (<dir>/archive.msca, zone-mapped blocks "
           "sorted by flat index), remove the result logs, then exit");
  cli.flag("dump",
           "write --run-dir's recorded results to stdout, one JSON object "
           "per line in file order, then exit");
  cli.flag("no-cache", "disable the memoization cache");
  cli.flag("quiet", "suppress the per-point result table");
  if (!cli.parse(argc, argv)) return 0;

  const search::LogFormat log_format =
      search::parse_log_format(cli.get_string("log-format"));
  const auto flush_every = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("flush-every")));

  if (cli.get_flag("dump")) {
    // The grep/diff view of a run: every record load() reads (archive,
    // unsharded log, then shard logs), undeduplicated, in file order.
    explore::write_ndjson(std::cout,
                          search::RunLog::load(action_dir(cli, "--dump")));
    return 0;
  }

  if (cli.get_flag("compact")) {
    const std::string dir = action_dir(cli, "--compact");
    // An empty or never-recorded directory is a no-op, not an error:
    // compact is idempotent cleanup, and "nothing to clean" is success.
    const auto stats = search::RunLog::compact(dir, flush_every);
    if (stats.loaded == 0) {
      std::cout << "compact: nothing to compact in " << dir << "\n";
    } else {
      std::cout << "compact: " << stats.loaded << " records -> "
                << stats.kept << " unique design points\n";
    }
    return 0;
  }

  if (cli.get_flag("archive")) {
    const std::string dir = action_dir(cli, "--archive");
    const auto meta = search::RunLog::read_meta(dir);
    if (meta && explore::config_token(*meta, "shards") &&
        explore::config_token(*meta, "strategy") != "exhaustive") {
      // An adaptive shard resumes *its own trajectory* from its own
      // log; one merged archive cannot stand in for K per-shard logs
      // without mis-charging every sibling's records as one stream's
      // spend.  Exhaustive shards are position-independent, so their
      // union archives cleanly (resume seeks its flat range back out).
      throw std::runtime_error(
          "--archive refuses adaptive sharded run dirs (" + dir +
          "): each shard resumes its own trajectory from its own log, "
          "which one merged archive cannot stand in for");
    }
    const std::vector<explore::EvalResult> records =
        search::RunLog::dedup(search::RunLog::load(dir));
    if (records.empty()) {
      std::cout << "archive: nothing to archive in " << dir << "\n";
      return 0;
    }
    const std::string path = search::RunLog::archive_path(dir);
    const search::ArchiveStats stats = search::write_archive(path, records);
    // The archive now holds the entire (deduplicated) history, so the
    // row-per-record logs it was built from come off disk — meta.json
    // stays, it still fingerprints the configuration a resume verifies.
    // A crash before the removals is benign: load() reads the archive
    // first and dedups the overlap away.
    std::vector<std::string> logs;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("results.") && name.ends_with(".msbin")) {
        logs.push_back(entry.path().string());
      }
    }
    util::IoEnv& env = util::io_env();
    for (const auto& path_to_remove : logs) {
      const util::IoResult removed = env.remove_file(path_to_remove);
      if (!removed.ok()) {
        throw std::runtime_error("archive: cannot remove " + path_to_remove +
                                 ": " + removed.message);
      }
    }
    std::cout << "archive: " << stats.rows << " unique design points ("
              << stats.feasible_rows << " feasible) -> " << stats.blocks
              << " block(s) of " << stats.block_rows << " rows, "
              << stats.dict_entries << " dictionary entries, " << stats.bytes
              << " bytes in " << path << "\n";
    return 0;
  }

  if (cli.get_flag("merge")) {
    const std::string dir = cli.get_string("run-dir");
    if (dir.empty()) {
      throw std::invalid_argument("--merge needs --run-dir <dir>");
    }
    const std::vector<std::string> sources =
        util::split_list(cli.get_string("merge-from"));
    // Exhaustive recordings are position-independent, so the merged
    // union equals a single-process run and may shed the shard token
    // (becoming resumable as one).  Adaptive unions keep it: resuming
    // the union under one seed would mis-charge every sibling shard's
    // records as that trajectory's own spend.
    auto meta = search::RunLog::read_meta(dir);
    for (std::size_t i = 0; !meta && i < sources.size(); ++i) {
      meta = search::RunLog::read_meta(sources[i]);
    }
    const bool exhaustive_run =
        meta && explore::config_token(*meta, "strategy") == "exhaustive";
    const auto stats =
        search::RunLog::merge(dir, sources, flush_every,
                              /*strip_shard_token=*/exhaustive_run);
    std::cout << "merge: " << stats.loaded << " records from "
              << (stats.sources + 1) << " dir(s) -> " << stats.kept
              << " unique design points in " << dir
              << (exhaustive_run ? "; resumable as a single-process run"
                                 : "")
              << "\n";
    return 0;
  }

  // The scenario comes from the config text this run records, so what
  // explore_cli evaluates, what --resume verifies and what serve_cli
  // serves are one parse of the same bytes.
  const std::string config = run_config(cli);
  const explore::ScenarioSpec spec =
      explore::from_config(config, "explore_cli");

  const explore::CostMetric cost = cost_metric_from(cli.get_string("cost"));
  // Validated up front so a typo fails loudly even when the exhaustive
  // path (which does not use it) is taken.
  const explore::CostMetric search_cost =
      cost_metric_from(cli.get_string("cost-metric"));

  const std::string strategy_text = cli.get_string("strategy");
  const bool adaptive = strategy_text != "exhaustive";

  std::optional<search::ShardSpec> shard;
  if (const std::string text = cli.get_string("shard"); !text.empty()) {
    shard = search::parse_shard_spec(text);
  }

  const std::string resume_dir = cli.get_string("resume");
  const std::string run_dir =
      resume_dir.empty() ? cli.get_string("run-dir") : resume_dir;

  explore::EngineOptions options;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.use_cache = !cli.get_flag("no-cache");
  if (!options.use_cache && (adaptive || !resume_dir.empty())) {
    throw std::invalid_argument(
        "--no-cache is incompatible with adaptive strategies and with "
        "--resume: budgets and warm-loading both work through the memo "
        "cache.  (A *fresh* exhaustive --run-dir is fine without the cache: "
        "every cross-product point is distinct, so the cache would only be "
        "read back at resume time.)");
  }
  explore::ExploreEngine engine(options);

  // Persistence: --run-dir starts a *fresh* recorded run (the directory
  // must not already hold one), --resume continues an existing one — it
  // verifies the recorded space config, then warm-loads the memo cache so
  // already-done points are served as hits instead of recomputed.  A
  // shard warms from (and appends to) only its own results.shard-<i>
  // file: sibling shards' records must not skip this shard's appends or
  // inflate its already-spent budget — the merged union, not any single
  // shard, is what covers the whole run.
  std::unique_ptr<search::RunLog> log;
  std::vector<explore::EvalResult> prior_records;
  std::size_t warmed = 0;
  if (!run_dir.empty()) {
    const auto meta = search::RunLog::read_meta(run_dir);
    const bool own_results =
        shard ? std::filesystem::exists(
                    search::RunLog::shard_binary_results_path(run_dir,
                                                              shard->index))
              : search::RunLog::has_results(run_dir);
    if (!resume_dir.empty()) {
      if (!meta) {
        throw std::runtime_error(
            "nothing to resume in " + run_dir +
            " (no meta.json — was this directory recorded with --run-dir?)");
      }
      if (*meta != config) {
        throw std::runtime_error("cannot resume " + run_dir +
                                 ": it was recorded under a different "
                                 "configuration (" + *meta + ")");
      }
      if (shard && !adaptive) {
        // Exhaustive shards own contiguous flat-index ranges, so after
        // --archive folded the per-shard logs into one archive this
        // shard's records sit in a contiguous block band — load_range
        // seeks just those blocks instead of materializing the union.
        const search::SearchSpace space(spec);
        const search::ShardPlan plan(space.size(), shard->count);
        const search::ShardRange range = plan.range(shard->index);
        prior_records =
            search::RunLog::load_range(run_dir, range.begin, range.end);
      } else if (shard) {
        prior_records = search::RunLog::load_shard(run_dir, shard->index);
      } else {
        prior_records = search::RunLog::load(run_dir);
      }
      warmed = search::RunLog::warm(prior_records, spec, engine);
      std::cout << "resume: warmed " << warmed << " cache entries from "
                << run_dir << "\n";
      // meta.json already holds exactly `config`; rewriting it would
      // serve no purpose — it records this very configuration.
    } else if (shard) {
      // Sharded fresh start: K processes share one directory, so meta
      // (the shared config, shard count included) may legitimately have
      // been written by a sibling already — it must simply match.  Only
      // *this shard's own* result file makes the start a refused
      // restart.
      if (meta && *meta != config) {
        throw std::runtime_error(
            run_dir + " was recorded under a different configuration (" +
            *meta + "); refusing to add shard " +
            std::to_string(shard->index) + " to it");
      }
      if (own_results) {
        throw std::runtime_error(
            run_dir + " already holds results for shard " +
            std::to_string(shard->index) + "; pass --resume " + run_dir +
            " to continue it");
      }
      if (!meta) search::RunLog::write_meta(run_dir, config);
    } else {
      if (meta || own_results) {
        // Appending a fresh run to an old log — possibly recorded under
        // a different configuration — would poison later resumes.
        throw std::runtime_error(
            run_dir + " already contains a recorded run; pass --resume " +
            run_dir + " to continue it, or pick a fresh --run-dir");
      }
      search::RunLog::write_meta(run_dir, config);
    }
    search::RunLogOptions log_options{log_format, flush_every};
    log_options.fsync = cli.get_flag("fsync");
    if (shard) log_options.shard = shard->index;
    log = std::make_unique<search::RunLog>(run_dir, log_options);
  }

  auto print_best = [](const explore::EvalResult& best) {
    // The shared rendering (explore::best_line) keeps this byte-identical
    // to a serve_cli `best` answer over the same records.
    std::cout << explore::best_line(best) << "\n\n";
  };

  if (adaptive) {
    search::SearchSpace space(spec);
    search::SearchOptions search_options;
    search_options.strategy = search::parse_strategy(strategy_text);
    search_options.budget = static_cast<std::uint64_t>(
        std::max<long long>(1, cli.get_int("budget")));
    search_options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (shard) {
      // Each adaptive shard is a seed-derived walker group: the full
      // strategy over the whole space under its own decorrelated (yet
      // reproducible and individually resumable) stream.  --budget is
      // per shard.
      search_options.seed = search::ShardPlan::shard_seed(
          search_options.seed, shard->index, shard->count);
    }
    search_options.batch =
        static_cast<std::size_t>(std::max<long long>(1, cli.get_int("batch")));
    search_options.population = static_cast<std::size_t>(
        std::max<long long>(2, cli.get_int("population")));
    search_options.walkers = static_cast<std::size_t>(
        std::max<long long>(1, cli.get_int("walkers")));
    search_options.cost_metric = search_cost;
    // A resumed run continues the *same* budget: the warm-loaded log is
    // what the killed run already spent, so the sum of fresh evaluations
    // across all resumes never exceeds --budget and the final best
    // matches an uninterrupted run's.
    search_options.already_spent = warmed;
    std::cout << "search: " << strategy_text << " over " << space.size()
              << " grid points, budget " << search_options.budget
              << " unique evaluations (" << warmed << " already spent), "
              << engine.threads() << " thread(s)";
    if (shard) {
      std::cout << ", shard " << shard->index << "/" << shard->count
                << " (derived seed " << search_options.seed << ")";
    }
    std::cout << "\n";

    const auto start = std::chrono::steady_clock::now();
    const search::SearchOutcome outcome =
        search::run_search(engine, space, search_options, log.get());
    const double elapsed = seconds_since(start);
    std::cout << "search: " << outcome.evaluations << " unique evaluations ("
              << outcome.proposals << " proposals, " << outcome.restarts
              << " restarts) in " << util::format_double(elapsed * 1e3, 2)
              << " ms\n";
    if (log) {
      log->flush();
      std::cout << "log: " << log->appended()
                << " fresh results appended to " << log->path() << "\n";
    }
    // The replayed trajectory normally re-surfaces the prior best (same
    // seed → same proposals), but if the budget was already exhausted at
    // resume time no rounds run at all — recover the best from the log.
    const explore::EvalResult* prior_best =
        explore::best_result(prior_records);
    const explore::EvalResult* best = outcome.found ? &outcome.best : nullptr;
    if (prior_best != nullptr &&
        (best == nullptr || prior_best->speedup > best->speedup)) {
      best = prior_best;
    }
    if (best == nullptr) {
      std::cout << "no feasible design point\n";
      return 1;
    }
    print_best(*best);
    if (search_options.strategy == search::Strategy::kPareto) {
      const double ref_cost = explore::hypervolume_ref_cost(spec);
      const explore::CostMetric archive_cost = search_options.cost_metric;
      // The replayed trajectory normally rebuilds the prior archive; the
      // already-exhausted-at-resume corner (no rounds run) does not, so
      // fold the prior records in — archive_summary/hypervolume reduce
      // to the non-dominated set anyway.
      std::vector<explore::EvalResult> archive = outcome.archive;
      archive.insert(archive.end(), prior_records.begin(),
                     prior_records.end());
      const std::size_t points =
          explore::pareto_frontier(archive, archive_cost).size();
      std::cout << "archive: " << points
                << " non-dominated points, hypervolume "
                << util::format_double(
                       explore::hypervolume(archive, archive_cost, ref_cost),
                       2)
                << "\n";
      explore::archive_summary(archive, archive_cost, ref_cost)
          .print(std::cout,
                 std::string("Pareto archive (speedup vs. ") +
                     (archive_cost == explore::CostMetric::kCoreArea
                          ? "core area"
                          : "core count") +
                     ")");
    }
    return 0;
  }

  std::vector<explore::EvalResult> results;
  if (shard) {
    // Sharded exhaustive sweep: this process owns one contiguous slice
    // of the SearchSpace's flat-index grid (the same uniform grid the
    // adaptive strategies walk), enumerated space-ordered so the merged
    // union of all shards reads back in global flat order.
    const search::SearchSpace space(spec);
    const search::ShardPlan plan(space.size(), shard->count);
    const search::ShardRange range = plan.range(shard->index);
    std::cout << "scenario: shard " << shard->index << "/" << shard->count
              << " owns grid points [" << range.begin << ", " << range.end
              << ") of " << space.size() << ", " << engine.threads()
              << " thread(s), cache " << (options.use_cache ? "on" : "off")
              << "\n";
    const auto start = std::chrono::steady_clock::now();
    results = run_shard_range(engine, space, range, log.get());
    const double elapsed = seconds_since(start);
    const auto stats = engine.cache().stats();
    std::cout << "shard run: " << results.size() << " points in "
              << util::format_double(elapsed * 1e3, 2) << " ms ("
              << util::format_double(results.size() / elapsed, 0)
              << " evals/s); cache hits " << stats.hits << ", misses "
              << stats.misses << "\n";
  } else {
    const std::size_t total_jobs = spec.job_count();  // validates the spec
    std::cout << "scenario: " << total_jobs << " jobs over "
              << engine.threads() << " thread(s), cache "
              << (options.use_cache ? "on" : "off") << "\n";

    const long long repeat = std::max<long long>(1, cli.get_int("repeat"));
    for (long long run = 0; run < repeat; ++run) {
      const auto start = std::chrono::steady_clock::now();
      results = run_chunked(engine, spec.expand(), log.get());
      const double elapsed = seconds_since(start);
      const auto stats = engine.cache().stats();
      std::cout << "run " << (run + 1) << ": " << results.size()
                << " points in " << util::format_double(elapsed * 1e3, 2)
                << " ms (" << util::format_double(results.size() / elapsed, 0)
                << " evals/s); cache hits " << stats.hits << ", misses "
                << stats.misses << ", entries " << engine.cache().size()
                << "\n";
    }
  }

  // Persist the full result set.
  const std::string prefix = cli.get_string("out");
  const bool written =
      write_report(prefix + ".csv",
                   [&](std::ostream& os) {
                     explore::write_csv(os, results);
                   }) &&
      write_report(prefix + ".ndjson", [&](std::ostream& os) {
        explore::write_ndjson(os, results);
      });
  if (!written) return 1;
  std::cout << "wrote " << prefix << ".csv and " << prefix << ".ndjson\n\n";

  if (!cli.get_flag("quiet")) {
    explore::to_table(results).print(std::cout, "all evaluated points");
  }

  if (const explore::EvalResult* best = explore::best_result(results)) {
    print_best(*best);
  } else {
    std::cout << "no feasible design point\n";
    return 1;
  }

  const auto top =
      explore::top_k(results, static_cast<std::size_t>(cli.get_int("top")));
  explore::to_table(top).print(std::cout, "top-k designs by speedup");

  const auto frontier = explore::pareto_frontier(results, cost);
  explore::to_table(frontier).print(
      std::cout, std::string("Pareto frontier (speedup vs. ") +
                     (cost == explore::CostMetric::kCoreArea ? "core area"
                                                             : "core count") +
                     ")");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "explore_cli: " << e.what() << "\n";
  return 1;
}
