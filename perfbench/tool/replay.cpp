// Traced in-process replays.  Each replays one workload's path by calling
// the same public functions the shipped binaries call, wrapping every
// call into a layer in a span, with a CountingIoEnv installed for the
// util.io.* counters.  Where one layer is reachable only inside another,
// the replay drives that layer's public block functions on the same jobs
// (the sweep's cache_keys -> MemoCache::lookup_block ->
// core::evaluate_batch -> MemoCache::insert_block), so each layer gets a
// span of its own.  run_search has no such split, so the search replay
// reports one coarse span for it.
//
// Only long-lived entry points are used: RunLog::load/warm,
// ArchiveReader, serve::parse_query, and the explore report/rank
// functions; nothing from serve's start-up archive or its probe.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/comm_model.hpp"
#include "core/eval_batch.hpp"
#include "counting_env.hpp"
#include "explore/engine.hpp"
#include "explore/memo_cache.hpp"
#include "explore/report.hpp"
#include "grid.hpp"
#include "mix.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/protocol.hpp"
#include "tool.hpp"
#include "trace.hpp"
#include "util/io_env.hpp"

namespace perfbench {

namespace {

using namespace mergescale;

/// explore_cli's exhaustive --run-dir path evaluates 512-job chunks; with
/// --threads 2 the engine claims blocks of 512 / (2 * 4) = 64 jobs.
constexpr std::size_t kChunk = 512;
constexpr std::size_t kClaimBlock = 64;
/// The analytic client's largest top-k.
constexpr std::size_t kMaxWarmTopK = 1000;
/// Point and analytic queries in each serve replay pass.
constexpr std::size_t kReplayPoints = 20000;
constexpr std::size_t kReplayAnalytic = 6;

/// Layer metric name -> value, printed as the "layers" object.
using Layers = std::map<std::string, double>;

std::uint64_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

double self_of(const std::map<std::string, Tracer::Totals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s;
}

double total_of(const std::map<std::string, Tracer::Totals>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

void add_io(Layers& layers, const IoCounters& io) {
  layers["util.io.appends"] = static_cast<double>(io.appends.load());
  layers["util.io.write_bytes"] = static_cast<double>(io.write_bytes.load());
  layers["util.io.write_s"] = static_cast<double>(io.write_ns.load()) * 1e-9;
  layers["util.io.flushes"] = static_cast<double>(io.flushes.load());
  layers["util.io.syncs"] = static_cast<double>(io.syncs.load());
  layers["util.io.read_bytes"] = static_cast<double>(io.read_bytes.load());
  layers["util.io.read_s"] = static_cast<double>(io.read_ns.load()) * 1e-9;
}

void add_cache(Layers& layers, const explore::MemoCache& cache) {
  const explore::MemoCache::Stats stats = cache.stats();
  const double probes = static_cast<double>(stats.hits + stats.misses);
  layers["explore.cache.hits"] = static_cast<double>(stats.hits);
  layers["explore.cache.misses"] = static_cast<double>(stats.misses);
  layers["explore.cache.hit_ratio"] =
      probes > 0 ? static_cast<double>(stats.hits) / probes : 0.0;
  layers["explore.cache.entries"] = static_cast<double>(cache.size());
}

/// Prints the replay's result: wall time, per-span totals, the self time
/// of the structural spans in `roots` (time no layer accounts for), layer
/// metrics, checks.
void print_result(const Tracer& tracer, std::vector<std::string> roots,
                  double wall_s, const Layers& layers,
                  const JsonObject& extra) {
  const auto totals = tracer.totals();
  double unattributed = 0.0;
  for (const std::string& root : roots) unattributed += self_of(totals, root);
  JsonObject spans;
  for (const auto& [name, total] : totals) {
    JsonObject entry;
    entry.num("count", static_cast<double>(total.count))
        .num("total_s", total.total_s)
        .num("self_s", total.self_s);
    spans.raw(name, entry.text());
  }
  JsonObject layer_json;
  for (const auto& [name, value] : layers) layer_json.num(name, value);
  JsonObject out;
  out.num("traced_wall_s", wall_s)
      .num("unattributed_s", unattributed)
      .num("span_count", static_cast<double>(tracer.size()))
      .raw("spans", spans.text())
      .raw("layers", layer_json.text())
      .raw("extra", extra.text());
  std::cout << out.text() << "\n";
}

explore::EvalOutcome to_outcome(const std::optional<core::DesignPoint>& point) {
  if (!point || !std::isfinite(point->speedup)) return explore::EvalOutcome{};
  return explore::EvalOutcome{true, *point};
}

// ---------------------------------------------------------------------------
// sweep: explore_cli --run-dir (exhaustive, binary log), then --archive.
// ---------------------------------------------------------------------------

/// Replays one claim block's cache + kernel work on `cache`.
struct BlockReplay {
  std::vector<explore::CacheKey> keys;
  std::vector<explore::EvalOutcome> outs;
  std::vector<std::uint8_t> hits;
  std::vector<const core::EvalRequest*> miss_requests;
  std::vector<std::optional<core::DesignPoint>> miss_points;
  std::vector<explore::CacheKey> miss_keys;
  std::vector<explore::EvalOutcome> miss_outcomes;
  core::EvalBatch batch;
  std::uint64_t eval_calls = 0;
  std::uint64_t eval_points = 0;

  void run(Tracer& tracer, std::span<const explore::EvalJob> jobs,
           explore::MemoCache& cache) {
    keys.resize(jobs.size());
    outs.resize(jobs.size());
    hits.resize(jobs.size());
    {
      auto span = tracer.span("explore.cache.key");
      explore::cache_keys(jobs, keys);
    }
    {
      auto span = tracer.span("explore.cache.lookup");
      cache.lookup_block(keys, outs, hits);
    }
    miss_requests.clear();
    miss_keys.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!hits[i]) {
        miss_requests.push_back(&jobs[i].request);
        miss_keys.push_back(keys[i]);
      }
    }
    if (miss_requests.empty()) return;
    miss_points.assign(miss_requests.size(), std::nullopt);
    {
      auto span = tracer.span("core.eval");
      core::evaluate_batch(
          std::span<const core::EvalRequest* const>(miss_requests),
          miss_points, batch);
    }
    eval_calls += 1;
    eval_points += miss_requests.size();
    miss_outcomes.clear();
    for (const auto& point : miss_points) miss_outcomes.push_back(to_outcome(point));
    {
      auto span = tracer.span("explore.cache.insert");
      cache.insert_block(miss_keys, miss_outcomes);
    }
  }
};

}  // namespace

int run_trace_sweep(const Args& args) {
  const std::string dir = args.str("dir");
  const std::string prefix = args.str("report");
  CountingIoEnv env(&util::real_io_env());
  util::ScopedIoEnv scoped(&env);
  Tracer tracer(true);
  Layers layers;
  JsonObject extra;
  std::string best_text;
  std::string archive_best_text;
  double wall = 0.0;
  {
    auto root = tracer.span("sweep");
    const explore::ScenarioSpec spec = grid_spec();
    std::vector<explore::EvalJob> jobs;
    {
      auto span = tracer.span("explore.expand");
      jobs = spec.expand();
    }
    layers["explore.expand.jobs"] = static_cast<double>(jobs.size());

    explore::EngineOptions engine_options;
    engine_options.threads = 1;
    explore::ExploreEngine engine(engine_options);
    explore::MemoCache replay_cache;
    BlockReplay blocks;
    auto log = std::make_unique<search::RunLog>(
        dir, search::RunLogOptions{search::LogFormat::kBinary, 1});
    std::vector<explore::EvalResult> results;
    results.reserve(jobs.size());
    std::vector<explore::EvalJob> slice;
    for (std::size_t begin = 0; begin < jobs.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, jobs.size());
      {
        auto span = tracer.span("explore.slice");
        slice.assign(jobs.begin() + static_cast<std::ptrdiff_t>(begin),
                     jobs.begin() + static_cast<std::ptrdiff_t>(end));
        for (std::size_t i = 0; i < slice.size(); ++i) slice[i].index = i;
      }
      std::vector<explore::EvalResult> part;
      {
        auto span = tracer.span("runtime.run");
        part = engine.run(slice);
      }
      for (std::size_t b = 0; b < slice.size(); b += kClaimBlock) {
        const std::size_t n = std::min(kClaimBlock, slice.size() - b);
        blocks.run(tracer, std::span<const explore::EvalJob>(slice).subspan(b, n),
                   replay_cache);
      }
      auto span = tracer.span("search.log.append");
      for (std::size_t i = 0; i < part.size(); ++i) {
        part[i].index = begin + i;
        if (!part[i].from_cache) log->append(part[i]);
        results.push_back(std::move(part[i]));
      }
    }
    {
      auto span = tracer.span("search.log.flush");
      log->flush();
    }
    layers["search.log.records"] = static_cast<double>(log->appended());
    log.reset();
    layers["search.log.bytes"] = static_cast<double>(
        file_bytes(search::RunLog::binary_results_path(dir)));
    jobs = {};

    {
      auto span = tracer.span("explore.report.csv");
      std::ofstream csv(prefix + ".csv");
      explore::write_csv(csv, results);
    }
    {
      auto span = tracer.span("explore.report.ndjson");
      std::ofstream ndjson(prefix + ".ndjson");
      explore::write_ndjson(ndjson, results);
    }
    layers["explore.report.bytes"] = static_cast<double>(
        file_bytes(prefix + ".csv") + file_bytes(prefix + ".ndjson"));
    {
      auto span = tracer.span("explore.rank");
      const explore::EvalResult* best = explore::best_result(results);
      const auto top = explore::top_k(results, 5);
      const auto frontier =
          explore::pareto_frontier(results, explore::CostMetric::kCoreArea);
      if (best != nullptr) best_text = explore::best_line(*best);
      extra.num("frontier_points", static_cast<double>(frontier.size()))
          .num("top_points", static_cast<double>(top.size()));
    }
    add_cache(layers, replay_cache);
    layers["core.eval.calls"] = static_cast<double>(blocks.eval_calls);
    layers["core.eval.points"] = static_cast<double>(blocks.eval_points);
    results = {};

    // explore_cli --archive: load + dedup the log, write the archive,
    // remove the row log.
    std::vector<explore::EvalResult> records;
    {
      auto span = tracer.span("search.log.load");
      records = search::RunLog::load(dir);
    }
    layers["search.log.load_records"] = static_cast<double>(records.size());
    {
      auto span = tracer.span("search.log.dedup");
      records = search::RunLog::dedup(std::move(records));
    }
    const std::string archive = search::RunLog::archive_path(dir);
    {
      auto span = tracer.span("search.archive.write");
      const search::ArchiveStats stats = search::write_archive(archive, records);
      layers["search.archive.bytes"] = static_cast<double>(stats.bytes);
    }
    records = {};
    {
      auto span = tracer.span("search.log.remove");
      const util::IoResult removed =
          util::io_env().remove_file(search::RunLog::binary_results_path(dir));
      if (!removed.ok()) throw std::runtime_error(removed.message);
    }
    // The check a user makes before serving: the archive's best is the
    // sweep's best.
    std::optional<search::ArchiveReader> reader;
    {
      auto span = tracer.span("search.archive.open");
      reader.emplace(search::ArchiveReader::open(archive));
    }
    {
      auto span = tracer.span("search.archive.best");
      const auto best = reader->best();
      if (best) archive_best_text = explore::best_line(*best);
    }
    wall = tracer.now_s();
  }
  const auto totals = tracer.totals();
  const double blocks_s =
      total_of(totals, "explore.cache.key") +
      total_of(totals, "explore.cache.lookup") + total_of(totals, "core.eval") +
      total_of(totals, "explore.cache.insert");
  layers["explore.expand.self_s"] = self_of(totals, "explore.expand");
  layers["explore.cache.key_s"] = self_of(totals, "explore.cache.key");
  layers["explore.cache.lookup_s"] = self_of(totals, "explore.cache.lookup");
  layers["explore.cache.insert_s"] = self_of(totals, "explore.cache.insert");
  layers["core.eval.self_s"] = self_of(totals, "core.eval");
  layers["core.eval.points_per_call"] =
      layers["core.eval.calls"] > 0
          ? layers["core.eval.points"] / layers["core.eval.calls"]
          : 0.0;
  layers["runtime.dispatch_s"] = total_of(totals, "runtime.run") - blocks_s;
  layers["explore.report.csv_s"] = self_of(totals, "explore.report.csv");
  layers["explore.report.ndjson_s"] = self_of(totals, "explore.report.ndjson");
  layers["explore.rank.self_s"] = self_of(totals, "explore.rank");
  layers["search.log.load_s"] = self_of(totals, "search.log.load");
  layers["search.log.dedup_s"] = self_of(totals, "search.log.dedup");
  layers["search.archive.write_s"] = self_of(totals, "search.archive.write");
  layers["search.archive.open_s"] = self_of(totals, "search.archive.open");
  layers["search.archive.best_s"] = self_of(totals, "search.archive.best");
  add_io(layers, env.counters());
  extra.str("best", best_text).str("archive_best", archive_best_text);
  tracer.write(args.str("spans"));
  print_result(tracer, {"sweep"}, wall, layers, extra);
  return best_text.empty() || best_text != archive_best_text ? 1 : 0;
}

// ---------------------------------------------------------------------------
// search: record an anneal run untraced, then replay its --resume traced.
// ---------------------------------------------------------------------------

namespace {

search::SearchOptions anneal_options(std::uint64_t seed, std::uint64_t budget) {
  // explore_cli's defaults for the flags the benchmark does not set.
  search::SearchOptions options;
  options.strategy = search::Strategy::kAnneal;
  options.budget = budget;
  options.seed = seed;
  options.batch = 64;
  options.population = 32;
  options.walkers = 8;
  options.cost_metric = explore::CostMetric::kCoreArea;
  return options;
}

}  // namespace

int run_trace_search(const Args& args) {
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const auto prep_budget = static_cast<std::uint64_t>(args.num("prep-budget"));
  const auto budget = static_cast<std::uint64_t>(args.num("budget"));
  const search::SearchSpace space(grid_spec());
  // One worker thread, as the CLI search this replay is compared with.
  explore::EngineOptions engine_options;
  engine_options.threads = 1;
  {
    explore::ExploreEngine engine(engine_options);
    search::RunLog log(dir, {search::LogFormat::kBinary, 1});
    search::run_search(engine, space, anneal_options(seed, prep_budget), &log);
  }

  const std::uint64_t bytes_before =
      file_bytes(search::RunLog::binary_results_path(dir));
  CountingIoEnv env(&util::real_io_env());
  util::ScopedIoEnv scoped(&env);
  Tracer tracer(true);
  Layers layers;
  JsonObject extra;
  std::string best_text;
  double wall = 0.0;
  double run_io_s = 0.0;
  {
    auto root = tracer.span("search");
    explore::ExploreEngine engine(engine_options);
    std::vector<explore::EvalResult> prior;
    {
      auto span = tracer.span("search.log.load");
      prior = search::RunLog::load(dir);
    }
    layers["search.log.load_records"] = static_cast<double>(prior.size());
    std::size_t warmed = 0;
    {
      auto span = tracer.span("search.log.warm");
      warmed = search::RunLog::warm(prior, space.spec(), engine);
    }
    std::optional<search::RunLog> log;
    {
      auto span = tracer.span("search.log.open");
      log.emplace(dir, search::RunLogOptions{search::LogFormat::kBinary, 1});
    }
    search::SearchOptions options = anneal_options(seed, budget);
    options.already_spent = warmed;
    search::SearchOutcome outcome;
    {
      const std::uint64_t io_before = env.counters().write_ns.load();
      auto span = tracer.span("search.run");
      outcome = search::run_search(engine, space, options, &*log);
      run_io_s =
          static_cast<double>(env.counters().write_ns.load() - io_before) * 1e-9;
    }
    {
      auto span = tracer.span("search.log.flush");
      log->flush();
    }
    layers["search.log.records"] = static_cast<double>(log->appended());
    log.reset();
    {
      auto span = tracer.span("explore.rank");
      const explore::EvalResult* prior_best = explore::best_result(prior);
      const explore::EvalResult* best = outcome.found ? &outcome.best : nullptr;
      if (prior_best != nullptr &&
          (best == nullptr || prior_best->speedup > best->speedup)) {
        best = prior_best;
      }
      if (best != nullptr) best_text = explore::best_line(*best);
    }
    layers["search.strategy.proposals"] = static_cast<double>(outcome.proposals);
    layers["search.strategy.evaluations"] =
        static_cast<double>(outcome.evaluations);
    layers["search.strategy.restarts"] = static_cast<double>(outcome.restarts);
    // Unique evaluations per proposal over the whole trajectory (the
    // resume replays the recorded part from the warmed cache).
    layers["search.strategy.unique_ratio"] =
        outcome.proposals > 0 ? static_cast<double>(outcome.evaluations) /
                                    static_cast<double>(outcome.proposals)
                              : 0.0;
    add_cache(layers, engine.cache());
    // Every cache miss inside run_search is one point through the batch
    // kernel; the calls themselves are not visible outside run_search.
    layers["core.eval.points"] = layers["explore.cache.misses"];
    wall = tracer.now_s();
  }
  const auto totals = tracer.totals();
  layers["search.log.bytes"] = static_cast<double>(
      file_bytes(search::RunLog::binary_results_path(dir)) - bytes_before);
  layers["search.log.load_s"] = self_of(totals, "search.log.load");
  layers["search.log.warm_s"] = self_of(totals, "search.log.warm");
  layers["search.run.self_s"] = self_of(totals, "search.run") - run_io_s;
  layers["explore.rank.self_s"] = self_of(totals, "explore.rank");
  add_io(layers, env.counters());
  extra.str("best", best_text);
  tracer.write(args.str("spans"));
  print_result(tracer, {"search"}, wall, layers, extra);
  return best_text.empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// serve: RunLog::load + warm + ArchiveReader::open, then the query mix.
// ---------------------------------------------------------------------------

namespace {

/// What serve_cli answers from: the archive reader, the warmed cache, the
/// delta of records newer than the archive, and the live-eval log.
struct ServeState {
  const explore::ScenarioSpec& spec;
  explore::ExploreEngine& engine;
  const search::ArchiveReader& reader;
  std::vector<explore::EvalResult>& delta;
  search::RunLog& log;
  std::size_t next_index = 0;
  std::uint64_t wrong_source = 0;
  std::uint64_t errors = 0;
};

std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

/// The server's eval reply text for one result.
std::string render_eval(const explore::EvalResult& result,
                        std::string_view source) {
  std::ostringstream os;
  os << "eval: variant=" << core::model_variant_name(result.variant)
     << " n=" << compact(result.n) << " app=" << result.app
     << " growth=" << result.growth << " topology=" << result.topology
     << " r=" << compact(result.r) << " rl=" << compact(result.rl)
     << " feasible=" << (result.feasible ? "yes" : "no")
     << " cores=" << compact(result.cores)
     << " speedup=" << compact(result.speedup) << " source=" << source
     << "\n";
  return serve::ok_header(serve::QueryKind::kEval, 1) + os.str() + "END\n";
}

/// Builds the eval job for a parsed query against the grid's scenario,
/// as the server resolves eval coordinates.
explore::EvalJob resolve(const explore::ScenarioSpec& spec,
                         const serve::Query& query) {
  explore::EvalJob job;
  core::EvalRequest& request = job.request;
  request.variant = core::parse_model_variant(query.variant);
  request.chip = core::ChipConfig{query.n, spec.perf};
  for (const auto& app : spec.apps) {
    if (app.name == query.app) request.app = app;
  }
  for (const auto& growth : spec.growths) {
    if (growth.name() == query.growth) request.growth = growth;
  }
  request.r = query.r;
  request.rl = query.rl;
  if (core::is_comm_variant(request.variant)) {
    const noc::Topology topology = noc::parse_topology(query.topology);
    request.comm_growth = core::comm_growth(topology);
    request.comp_share = spec.comp_share;
    job.topology = std::string(noc::topology_name(topology));
  }
  job.scenario = spec.name;
  return job;
}

std::string pareto_title(explore::CostMetric metric) {
  return std::string("Pareto frontier (speedup vs. ") +
         (metric == explore::CostMetric::kCoreArea ? "core area"
                                                   : "core count") +
         ")";
}

/// Parses and answers one request line as serve_cli would, one span per
/// layer call.  Returns the framed reply.
std::string answer(ServeState& state, Tracer& tracer, const MixQuery& mix,
                   std::uint64_t request) {
  auto root = tracer.span("serve.request", request);
  std::string error;
  std::optional<serve::Query> query;
  {
    auto span = tracer.span("serve.parse", request);
    query = serve::parse_query(mix.line, &error);
  }
  if (!query) {
    state.errors += 1;
    return serve::err_reply(error);
  }
  switch (query->kind) {
    case serve::QueryKind::kBest: {
      std::vector<explore::EvalResult> pool;
      {
        auto span = tracer.span("search.archive.best", request);
        if (auto best = state.reader.best()) pool.push_back(std::move(*best));
      }
      {
        auto span = tracer.span("serve.delta_copy", request);
        pool.insert(pool.end(), state.delta.begin(), state.delta.end());
      }
      const explore::EvalResult* best = nullptr;
      {
        auto span = tracer.span("explore.rank", request);
        best = explore::best_result(pool);
      }
      if (best == nullptr) break;
      auto span = tracer.span("serve.render", request);
      return serve::ok_header(serve::QueryKind::kBest, 1) +
             explore::best_line(*best) + "\nEND\n";
    }
    case serve::QueryKind::kTopK: {
      std::vector<explore::EvalResult> pool;
      {
        auto span = tracer.span("search.archive.topk", request);
        pool = state.reader.top_k(query->k);
      }
      {
        auto span = tracer.span("serve.delta_copy", request);
        pool.insert(pool.end(), state.delta.begin(), state.delta.end());
      }
      std::vector<explore::EvalResult> top;
      {
        auto span = tracer.span("explore.rank", request);
        top = explore::top_k(pool, query->k);
      }
      auto span = tracer.span("serve.render", request);
      const std::string payload =
          explore::to_table(top).to_text("top-k designs by speedup");
      return serve::ok_header(serve::QueryKind::kTopK,
                              serve::count_lines(payload)) +
             payload + "END\n";
    }
    case serve::QueryKind::kPareto: {
      std::vector<explore::EvalResult> pool;
      {
        auto span = tracer.span("search.archive.pareto", request);
        pool = state.reader.pareto(query->metric);
      }
      {
        auto span = tracer.span("serve.delta_copy", request);
        pool.insert(pool.end(), state.delta.begin(), state.delta.end());
      }
      std::vector<explore::EvalResult> frontier;
      {
        auto span = tracer.span("explore.rank", request);
        frontier = explore::pareto_frontier(pool, query->metric);
      }
      auto span = tracer.span("serve.render", request);
      const std::string payload =
          explore::to_table(frontier).to_text(pareto_title(query->metric));
      return serve::ok_header(serve::QueryKind::kPareto,
                              serve::count_lines(payload)) +
             payload + "END\n";
    }
    case serve::QueryKind::kEval: {
      const bool want_hit = mix.kind == Kind::kEvalHit;
      explore::EvalResult result;
      bool hit = false;
      {
        auto span = tracer.span(want_hit ? "serve.eval_hit" : "serve.eval_miss",
                                request);
        const explore::EvalJob job = resolve(state.spec, *query);
        const explore::CacheKey key = explore::cache_key(job.request);
        hit = state.engine.cache().contains(key);
        if (hit) {
          result = explore::evaluate_job(job, &state.engine.cache(), true);
        } else {
          {
            auto eval = tracer.span("core.eval", request);
            result = explore::evaluate_job(job, nullptr, false);
          }
          result.index = state.next_index++;
          {
            auto append = tracer.span("search.log.append", request);
            state.log.append(result);
            state.log.flush();
          }
          explore::EvalOutcome outcome;
          outcome.feasible = result.feasible;
          if (result.feasible) {
            outcome.point =
                core::DesignPoint{result.r, result.rl, result.speedup};
          }
          state.engine.cache().insert(key, outcome);
          state.delta.push_back(result);
        }
      }
      if (hit != want_hit) state.wrong_source += 1;
      auto span = tracer.span("serve.render", request);
      return render_eval(result, hit ? "archive" : "live");
    }
    case serve::QueryKind::kStats:
    case serve::QueryKind::kQuit: break;
  }
  state.errors += 1;
  return serve::err_reply("unexpected query kind");
}

/// The replayed request sequence: kReplayPoints point queries alternating
/// between two streams, with one analytic query after every
/// kReplayPoints / (kReplayAnalytic + 1) of them.
std::vector<MixQuery> replay_queries(std::uint64_t seed, int first_stream,
                                     int streams) {
  PointMix a(seed, first_stream, streams);
  PointMix b(seed, first_stream + 1, streams);
  const std::size_t every = kReplayPoints / (kReplayAnalytic + 1);
  std::vector<MixQuery> out;
  std::uint64_t scans = 0;
  for (std::size_t i = 0; i < kReplayPoints; ++i) {
    out.push_back(i % 2 == 0 ? a.next() : b.next());
    if ((i + 1) % every == 0 && scans < kReplayAnalytic) {
      out.push_back(analytic_query(scans++));
    }
  }
  return out;
}

}  // namespace

int run_trace_serve(const Args& args) {
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const explore::ScenarioSpec spec = grid_spec();

  // Untraced comparison pass first, on its own streams (2 and 3 of 4) so
  // its live evaluations never collide with the traced pass's.
  const std::vector<MixQuery> untraced_queries =
      replay_queries(seed, 2, 4);
  const std::vector<MixQuery> traced_queries =
      replay_queries(seed, 0, 4);

  CountingIoEnv env(&util::real_io_env());
  Tracer tracer(true);
  Layers layers;
  JsonObject extra;
  double startup_s = 0.0;
  double traced_queries_s = 0.0;
  double untraced_queries_s = 0.0;
  std::uint64_t wrong_source = 0;
  std::uint64_t errors = 0;

  explore::EngineOptions engine_options;
  engine_options.threads = 1;
  explore::ExploreEngine engine(engine_options);
  std::optional<search::ArchiveReader> reader;
  std::vector<explore::EvalResult> delta;
  {
    util::ScopedIoEnv scoped(&env);
    auto root = tracer.span("serve.start");
    const double begin = tracer.now_s();
    std::vector<explore::EvalResult> records;
    {
      auto span = tracer.span("search.log.load");
      records = search::RunLog::load(dir);
    }
    layers["search.log.load_records"] = static_cast<double>(records.size());
    {
      // serve_cli loads the deduplicated union of the directory's records.
      auto span = tracer.span("search.log.dedup");
      records = search::RunLog::dedup(std::move(records));
    }
    {
      auto span = tracer.span("search.log.warm");
      search::RunLog::warm(records, spec, engine);
    }
    {
      auto span = tracer.span("search.archive.open");
      reader.emplace(
          search::ArchiveReader::open(search::RunLog::archive_path(dir)));
    }
    // Records newer than the archive ride in memory next to it.
    if (records.size() > reader->row_count()) {
      delta.assign(records.begin() + static_cast<std::ptrdiff_t>(
                                         reader->row_count()),
                   records.end());
    }
    startup_s = tracer.now_s() - begin;
  }
  std::size_t next_index = static_cast<std::size_t>(reader->row_count()) +
                           delta.size();
  // Touch every archive column once before either pass, so neither pays
  // the first page faults of the mapped file.
  reader->pareto(explore::CostMetric::kCoreArea);
  reader->pareto(explore::CostMetric::kCoreCount);
  reader->top_k(kMaxWarmTopK);
  const std::size_t delta_before = delta.size();
  {
    search::RunLog log(dir, {search::LogFormat::kBinary, 1});
    Tracer off(false);
    ServeState state{spec, engine, *reader, delta, log, next_index};
    const double begin = tracer.now_s();
    for (std::size_t i = 0; i < untraced_queries.size(); ++i) {
      answer(state, off, untraced_queries[i], i + 1);
    }
    untraced_queries_s = tracer.now_s() - begin;
    // Drop this pass's live records from the delta again, so the traced
    // pass folds a delta of the same size (its cache entries stay, under
    // keys the traced pass never asks for).
    delta.resize(delta_before);
    next_index = state.next_index;
    wrong_source += state.wrong_source;
    errors += state.errors;
  }
  const std::uint64_t bytes_before =
      file_bytes(search::RunLog::binary_results_path(dir));
  {
    util::ScopedIoEnv scoped(&env);
    search::RunLog log(dir, {search::LogFormat::kBinary, 1});
    ServeState state{spec, engine, *reader, delta, log, next_index};
    auto root = tracer.span("serve.queries");
    const double begin = tracer.now_s();
    for (std::size_t i = 0; i < traced_queries.size(); ++i) {
      answer(state, tracer, traced_queries[i], i + 1);
    }
    traced_queries_s = tracer.now_s() - begin;
    layers["search.log.records"] = static_cast<double>(log.appended());
    wrong_source += state.wrong_source;
    errors += state.errors;
  }
  layers["search.log.bytes"] = static_cast<double>(
      file_bytes(search::RunLog::binary_results_path(dir)) - bytes_before);

  const auto totals = tracer.totals();
  // In-process parse+query+render time per query kind (traced pass).
  const std::vector<double> request_s = tracer.durations("serve.request");
  std::vector<double> by_kind[kKinds];
  std::vector<double> point_ms;
  for (std::size_t i = 0; i < request_s.size() && i < traced_queries.size();
       ++i) {
    const Kind kind = traced_queries[i].kind;
    by_kind[static_cast<int>(kind)].push_back(request_s[i] * 1e3);
    if (is_point(kind)) point_ms.push_back(request_s[i] * 1e3);
  }
  JsonObject kinds;
  for (int k = 0; k < kKinds; ++k) {
    JsonObject entry;
    entry.num("n", static_cast<double>(by_kind[k].size()))
        .num("p50_ms", percentile(by_kind[k], 0.5));
    kinds.raw(kind_name(static_cast<Kind>(k)), entry.text());
  }
  layers["search.log.load_s"] = self_of(totals, "search.log.load");
  layers["search.log.dedup_s"] = self_of(totals, "search.log.dedup");
  layers["search.log.warm_s"] = self_of(totals, "search.log.warm");
  layers["search.archive.open_s"] = self_of(totals, "search.archive.open");
  layers["search.archive.best_s"] = self_of(totals, "search.archive.best");
  layers["search.archive.topk_s"] = self_of(totals, "search.archive.topk");
  layers["search.archive.pareto_s"] = self_of(totals, "search.archive.pareto");
  layers["serve.parse_s"] = self_of(totals, "serve.parse");
  layers["serve.eval_hit_s"] = self_of(totals, "serve.eval_hit");
  layers["serve.eval_miss_s"] = total_of(totals, "serve.eval_miss");
  layers["serve.render_s"] = self_of(totals, "serve.render");
  layers["explore.rank.self_s"] = self_of(totals, "explore.rank");
  layers["core.eval.self_s"] = self_of(totals, "core.eval");
  layers["core.eval.calls"] =
      static_cast<double>(totals.count("core.eval") ? totals.at("core.eval").count : 0);
  layers["core.eval.points"] = layers["core.eval.calls"];
  layers["core.eval.points_per_call"] = layers["core.eval.calls"] > 0 ? 1.0 : 0.0;
  add_cache(layers, engine.cache());
  add_io(layers, env.counters());
  extra.num("startup_s", startup_s)
      .num("traced_queries_s", traced_queries_s)
      .num("untraced_queries_s", untraced_queries_s)
      .num("queries", static_cast<double>(traced_queries.size()))
      .num("wrong_source", static_cast<double>(wrong_source))
      .num("errors", static_cast<double>(errors))
      .num("point_p50_ms", percentile(point_ms, 0.5))
      .raw("kinds", kinds.text());
  tracer.write(args.str("spans"));
  print_result(tracer, {"serve.start", "serve.queries", "serve.request"},
               startup_s + traced_queries_s, layers, extra);
  return wrong_source == 0 && errors == 0 ? 0 : 1;
}

}  // namespace perfbench
