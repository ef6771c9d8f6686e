// explore_cli: design-space exploration driver — the end-to-end face of
// src/explore/ and src/search/.  One invocation expands a declarative
// scenario (chip budgets × apps × growth functions × model variants ×
// topologies), then either enumerates it exhaustively over a thread team
// or searches it adaptively (random / hill-climb / anneal / genetic /
// pareto) under a hard budget of distinct design points.  One cost
// metric (--cost-metric area|cores) is the cost axis of both Pareto
// views: the exhaustive report's frontier, and the pareto strategy's
// incremental non-dominated archive with its hypervolume summary.
// A design point is named by its canonical flat index
// (search::SearchSpace::canonical), which every record carries: the
// sweep (search::run_sweep, sharded or not) evaluates each canonical
// point once, in ascending flat order, and a search evaluates each point
// it proposes once, so the engine runs without its memo cache.  Every
// best, top-k and Pareto answer, a search's included, follows one rank
// order (explore::ranks_before): on a grid with exact twins (say two
// apps with equal f/fcon/fored) a search reports the lower canonical
// index, whichever twin it evaluated first, as the sweep and serve_cli
// do; builds before that reported the twin it evaluated first.
// Results stream into an optional run directory as an append-only
// binary log, written in groups of --flush-every records (default 64):
// a killed run loses at most one unflushed group, and a killed sweep
// also the blocks its --threads workers evaluated ahead of the writes
// (at most two 4096-flat blocks per worker).  --resume seeds the
// run with the design points its records name (search::prior_points):
// a sweep copies those records, a search charges them against its
// budget and replays its trajectory without evaluating them again.  A
// fresh, unsharded sweep, once it finishes, writes archive.msca from
// its in-memory results and removes the log it no longer needs.
//
//   ./build/explore_cli                                # paper defaults
//   ./build/explore_cli --apps kmeans,hop --budgets 64,256,1024
//       --variants symmetric,asymmetric,symmetric-comm
//       --growths linear,log --topologies mesh,bus --threads 8
//       --out /tmp/explore
//   ./build/explore_cli --strategy hill-climb --budget 500
//       --run-dir /tmp/run1              # persist fresh evaluations
//   ./build/explore_cli --strategy hill-climb --budget 500
//       --resume /tmp/run1               # continue from the run log
//   ./build/explore_cli --strategy anneal --walkers 16 --budget 100000
//       --run-dir /tmp/run2 --flush-every 1024
//                                        # million-point-scale persistence
//   ./build/explore_cli --archive --run-dir /tmp/run2
//                                        # dedup the log into archive.msca
//   ./build/explore_cli --dump --run-dir /tmp/run2 | grep hop
//                                        # the records, one JSON per line
//   for i in 0 1 2 3; do                 # multi-process sharded sweep
//     ./build/explore_cli --shard $i/4 --run-dir /tmp/shards &
//   done; wait                           # one results.shard-$i.msbin each
//   ./build/explore_cli --archive --run-dir /tmp/shards
//                                        # fold the shards into one archive,
//                                        # byte-identical to an unsharded
//                                        # sweep's, that resumes without
//                                        # --shard
//   ./build/explore_cli --archive --run-dir /tmp/ab --merge-from /tmp/a,/tmp/b
//                                        # fold recorded dirs into a fresh
//                                        # one (serve_cli --run-dir /tmp/ab
//                                        # serves the union)
//
// The sweep, archive.msca, the reports and --dump all run on the
// --threads team, and so does the closing best / top-k / Pareto
// reduction (explore::summarize); no output byte depends on the team
// size.  Writes <out>.csv and <out>.ndjson (exhaustive runs), and
// <dir>/results.msbin (results.shard-<i>.msbin under --shard) +
// <dir>/meta.json when persistence is on.  --archive is
// the one way to fold a run directory (search::RunLog::fold) into
// <dir>/archive.msca, the columnar, zone-mapped form serve_cli and
// resume read; see its --help text.

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
#include "runtime/thread_team.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "util/cli.hpp"
#include "util/io_env.hpp"

using namespace mergescale;

namespace {

explore::CostMetric cost_metric_from(const std::string& name) {
  if (const auto metric = explore::parse_cost_metric(name)) return *metric;
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
/// would silently seed the run with foreign points; resuming under a
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

/// The run directory an action flag (--archive, --dump) works on:
/// --run-dir, else --resume.
std::string action_dir(const util::Cli& cli, const std::string& action) {
  const std::string dir = cli.get_string("run-dir").empty()
                              ? cli.get_string("resume")
                              : cli.get_string("run-dir");
  if (dir.empty()) {
    throw std::invalid_argument(action + " needs --run-dir <dir>");
  }
  return dir;
}

/// The `archive:` line --archive prints, and a sweep that archives
/// itself.
void print_archive(const search::ArchiveStats& stats, const std::string& dir) {
  std::cout << "archive: " << stats.rows << " unique design points ("
            << stats.feasible_rows << " feasible) -> " << stats.blocks
            << " block(s) of " << stats.block_rows << " rows, "
            << stats.dict_entries << " dictionary entries, " << stats.bytes
            << " bytes in " << search::RunLog::archive_path(dir) << "\n";
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
                "parallel design-space exploration: sweep a scenario spec's "
                "distinct design points (or search them adaptively) over a "
                "thread team, and report best / top-k / Pareto-frontier "
                "designs");
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
          "worker threads for the sweep, the archive encoder, the "
          "report renderer and the best/top-k/Pareto reduction (0 = "
          "hardware concurrency); no output byte depends on it");
  cli.opt("top", static_cast<long long>(5), "top-k designs to print");
  cli.opt("out", std::string("explore_results"),
          "output prefix for <out>.csv and <out>.ndjson");
  cli.opt("strategy", std::string("exhaustive"),
          "exhaustive|random|hill-climb|anneal|genetic|pareto");
  cli.opt("budget", static_cast<long long>(2000),
          "max design points for the adaptive strategies (hard cap)");
  cli.opt("seed", static_cast<long long>(1), "search RNG seed");
  cli.opt("batch", static_cast<long long>(64),
          "random-search proposals per round");
  cli.opt("walkers", static_cast<long long>(8),
          "annealing: interacting walkers (one batch per round)");
  cli.opt("population", static_cast<long long>(32),
          "genetic/pareto individuals per generation");
  cli.opt("cost-metric", std::string("area"),
          "cost axis of the exhaustive Pareto frontier and of the pareto "
          "strategy's archive: area | cores");
  cli.opt("run-dir", std::string(),
          "persist fresh evaluations to <dir>/results.msbin");
  cli.opt("resume", std::string(),
          "resume a previous --run-dir (implies --run-dir <dir>); its "
          "recorded design points are not evaluated again");
  cli.opt("log-format", std::string("binary"),
          "run-log encoding: binary, the only one (--dump prints NDJSON)");
  cli.opt("flush-every", static_cast<long long>(search::kSweepFlushEvery),
          "run-log records per flush group: a crash loses at most one "
          "unflushed group");
  cli.flag("fsync",
           "fsync every flushed run-log group: the crash window holds "
           "under power loss, not just process death, at one fsync per "
           "group");
  cli.opt("shard", std::string(),
          "run shard i of a K-process exploration as i/K: exhaustive "
          "shards own contiguous slices of the space's flat indices "
          "(folded, they equal an unsharded sweep), adaptive shards are "
          "seed-derived walker groups; results go to "
          "<run-dir>/results.shard-i.msbin");
  cli.opt("merge-from", std::string(),
          "comma list of additional recorded run dirs --archive folds "
          "into --run-dir (configs must match; a fresh --run-dir takes "
          "their config, so serve_cli can serve the union)");
  cli.flag("archive",
           "fold --run-dir's records (shard logs and --merge-from dirs "
           "included) into one deduplicated columnar archive "
           "(<dir>/archive.msca, zone-mapped blocks sorted by flat index), "
           "remove the result logs and drop the shard count from "
           "meta.json, then exit; a directory holding an archive and no "
           "result logs (a fresh sweep ends so) has its block CRCs "
           "checked and is left as is");
  cli.flag("dump",
           "write --run-dir's recorded results to stdout, one JSON object "
           "per line in file order, then exit");
  cli.flag("quiet", "suppress the per-point result table");
  if (!cli.parse(argc, argv)) return 0;

  const std::vector<std::string> merge_from =
      util::split_list(cli.get_string("merge-from"));
  if (!merge_from.empty() && !cli.get_flag("archive")) {
    throw std::invalid_argument("--merge-from only works with --archive");
  }

  const search::LogFormat log_format =
      search::parse_log_format(cli.get_string("log-format"));
  const auto flush_every = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("flush-every")));

  // --threads sizes every parallel stage: the sweep pipeline, the
  // archive encoder, the report renderer and the closing reduction.
  // None of their output bytes depend on it.
  const int threads = runtime::ThreadTeam::resolve_size(
      static_cast<int>(cli.get_int("threads")));

  if (cli.get_flag("dump")) {
    // The grep/diff view of a run: every record load() reads (archive,
    // unsharded log, then shard logs), undeduplicated, in file order,
    // rendered on --threads workers.
    runtime::ThreadTeam team(threads);
    explore::write_ndjson(
        std::cout, search::RunLog::load(action_dir(cli, "--dump")), &team);
    return 0;
  }

  if (cli.get_flag("archive")) {
    const std::string dir = action_dir(cli, "--archive");
    runtime::ThreadTeam team(threads);
    // An already archived directory (a fresh sweep ends so) is checked,
    // not rewritten.
    if (const auto stats = search::RunLog::fold(dir, merge_from, &team)) {
      print_archive(*stats, dir);
    } else {
      std::cout << "archive: nothing to archive in " << dir << "\n";
    }
    return 0;
  }

  // The scenario comes from the config text this run records, so what
  // explore_cli evaluates, what --resume verifies and what serve_cli
  // serves are one parse of the same bytes.
  const std::string config = run_config(cli);
  const explore::ScenarioSpec spec =
      explore::from_config(config, "explore_cli");

  const explore::CostMetric cost =
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

  const search::SearchSpace space(spec);
  // A sweep meets each design point once and a search answers a revisit
  // from its visited set, so nothing would ever hit the memo cache.
  explore::ExploreEngine engine({.threads = threads, .use_cache = false});

  // Persistence: --run-dir starts a *fresh* recorded run (the directory
  // must not already hold one), --resume continues an existing one — it
  // verifies the recorded space config, then seeds the run with the
  // design points its records name, which are not evaluated again.  A
  // shard resumes from (and appends to) only its own results.shard-<i>
  // file: sibling shards' records must not skip this shard's appends or
  // inflate its spent budget — the folded union, not any single shard,
  // is what covers the whole run.
  std::unique_ptr<search::RunLog> log;
  std::vector<explore::EvalResult> prior_records;
  std::vector<search::PriorPoint> prior;
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
      if (shard && search::RunLog::has_archive(run_dir)) {
        // --archive drops the shard count from meta.json.  A directory
        // archived with it kept (by an older build) still matches
        // `config` but holds no shard log to resume from.
        throw std::runtime_error(
            run_dir + " was archived with its shard count kept; run "
            "`explore_cli --archive --run-dir " + run_dir +
            "` and resume without --shard");
      }
      if (shard) {
        prior_records = search::RunLog::load_shard(run_dir, shard->index);
      } else {
        prior_records = search::RunLog::load(run_dir);
      }
      prior = search::prior_points(space, prior_records);
      std::cout << "resume: seeded " << prior.size()
                << " design points from " << run_dir << "\n";
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
    search_options.cost_metric = cost;
    // A resume continues the *same* budget: run_search charges `prior`
    // as spent, and ends on an uninterrupted run's best.
    std::cout << "search: " << strategy_text << " over " << space.size()
              << " grid points, budget " << search_options.budget
              << " design points (" << prior.size() << " already spent), "
              << engine.threads() << " thread(s)";
    if (shard) {
      std::cout << ", shard " << shard->index << "/" << shard->count
                << " (derived seed " << search_options.seed << ")";
    }
    std::cout << "\n";

    const auto start = std::chrono::steady_clock::now();
    const search::SearchOutcome outcome =
        search::run_search(engine, space, search_options, log.get(), prior);
    const double elapsed = seconds_since(start);
    std::cout << "search: " << outcome.evaluations << " design points ("
              << outcome.proposals << " proposals, " << outcome.restarts
              << " restarts) in " << util::format_double(elapsed * 1e3, 2)
              << " ms\n";
    if (log) {
      log->flush();
      std::cout << "log: " << log->appended()
                << " fresh results appended to " << log->path() << "\n";
    }
    if (!outcome.found) {
      std::cout << "no feasible design point\n";
      return 1;
    }
    print_best(outcome.best);
    if (search_options.strategy == search::Strategy::kPareto) {
      const double ref_cost = explore::hypervolume_ref_cost(spec);
      // The incremental archive is its own Pareto frontier.
      const std::vector<explore::EvalResult>& archive = outcome.archive;
      std::cout << "archive: " << archive.size()
                << " non-dominated points, hypervolume "
                << util::format_double(
                       explore::hypervolume(archive, cost, ref_cost), 2)
                << "\n";
      explore::archive_summary(archive, cost, ref_cost)
          .print(std::cout, "Pareto archive (speedup vs. " +
                                std::string(explore::cost_metric_label(cost)) +
                                ")");
    }
    return 0;
  }

  // The exhaustive sweep: this process's range of the SearchSpace's flat
  // indices (all of them unsharded: shard 0 of 1), each canonical design
  // point evaluated once, in ascending flat order, so the union of all
  // shards' logs is what one process would record.
  const search::ShardSpec part = shard.value_or(search::ShardSpec{});
  const search::ShardRange range =
      search::ShardPlan(space.size(), part.count).range(part.index);
  // Counted from the axes: nothing is enumerated before this line.
  std::cout << "scenario: " << space.point_count() << " jobs over "
            << engine.threads() << " thread(s)";
  if (shard) {
    std::cout << "; shard " << part.index << "/" << part.count
              << " owns grid points [" << range.begin << ", " << range.end
              << ") of " << space.size();
  }
  std::cout << "\n";
  const auto start = std::chrono::steady_clock::now();
  const std::vector<explore::EvalResult> results =
      search::run_sweep(engine, space, range, log.get(), prior);
  const double elapsed = seconds_since(start);
  const auto from_log = static_cast<std::size_t>(
      std::ranges::count(results, true, &explore::EvalResult::from_cache));
  std::cout << "run 1: " << results.size() << " points in "
            << util::format_double(elapsed * 1e3, 2) << " ms ("
            << util::format_double(results.size() / elapsed, 0)
            << " evals/s); " << results.size() - from_log << " fresh, "
            << from_log << " from the log\n";
  if (log && !shard && resume_dir.empty()) {
    // A fresh unsharded sweep's log holds exactly `results`, so archive
    // them from memory — the bytes --archive would write from
    // dedup(load(dir)) — instead of reloading them.
    log.reset();
    print_archive(search::RunLog::archive(run_dir, results, &engine.team()),
                  run_dir);
  }

  // Persist the full result set, rendered on the engine's workers.
  const std::string prefix = cli.get_string("out");
  const bool written =
      write_report(prefix + ".csv",
                   [&](std::ostream& os) {
                     explore::write_csv(os, results, &engine.team());
                   }) &&
      write_report(prefix + ".ndjson", [&](std::ostream& os) {
        explore::write_ndjson(os, results, &engine.team());
      });
  if (!written) return 1;
  std::cout << "wrote " << prefix << ".csv and " << prefix << ".ndjson\n\n";

  if (!cli.get_flag("quiet")) {
    explore::to_table(results).print(std::cout, "all evaluated points");
  }

  // best_result, top_k and pareto_frontier in one pass on the team.
  const explore::Summary summary = explore::summarize(
      results, static_cast<std::size_t>(cli.get_int("top")), cost,
      &engine.team());
  if (summary.best == nullptr) {
    std::cout << "no feasible design point\n";
    return 1;
  }
  print_best(*summary.best);

  // The shared renderers keep these tables byte-identical to serve_cli's
  // `topk` and `pareto` answers over the same records.
  std::cout << explore::top_k_text(summary.top) << '\n'
            << explore::pareto_text(summary.frontier, cost) << '\n';
  return 0;
} catch (const std::exception& e) {
  std::cerr << "explore_cli: " << e.what() << "\n";
  return 1;
}
