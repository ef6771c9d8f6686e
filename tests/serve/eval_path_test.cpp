// Differential tests of the server's eval path: answers come from the
// memory-mapped archive plus an in-memory delta, and must equal what the
// memo-cache server they replaced answered — that server warmed the
// deduplicated union of every record into an explore engine's cache and
// evaluated eval points through it.  The oracle below rebuilds that path
// from the same library calls (RunLog::warm + explore::evaluate_job).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/comm_model.hpp"
#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "noc/topology.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"
#include "util/io_env.hpp"

#include "reference_scans.hpp"

namespace mergescale::serve {
namespace {

namespace fs = std::filesystem;

// Every variant, two topologies, and core sizes past the smaller budget
// (rl=128 > n=64), so the grid holds infeasible rows.
constexpr const char* kConfig =
    "apps=kmeans,hop;budgets=64,128;growths=linear,log;"
    "variants=symmetric,asymmetric,symmetric-comm,asymmetric-comm;"
    "topologies=mesh,bus;small-cores=1,4;sizes=8,16,32,64,128;"
    "comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

std::string format(const char* spec, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), spec, value);
  return buf;
}

/// The eval request naming `point`'s design point, numbers exact.
std::string eval_line(const explore::EvalResult& point) {
  std::string line = "eval variant=" +
                     std::string(core::model_variant_name(point.variant)) +
                     " n=" + format("%.17g", point.n) + " app=" + point.app +
                     " growth=" + point.growth +
                     " r=" + format("%.17g", point.r) +
                     " rl=" + format("%.17g", point.rl);
  if (core::is_comm_variant(point.variant)) {
    line += " topology=" + point.topology;
  }
  return line;
}

/// The memo-cache server's eval path: the union warmed into a cache,
/// the point resolved against the scenario and evaluated through it,
/// `source=archive` exactly when the cache held it.
class MemoCacheOracle {
 public:
  MemoCacheOracle(const std::vector<explore::EvalResult>& union_records,
                  explore::ScenarioSpec spec)
      : spec_(std::move(spec)) {
    search::RunLog::warm(union_records, spec_, engine_);
  }

  std::string reply(const explore::EvalResult& point) {
    explore::EvalJob job;
    core::EvalRequest& request = job.request;
    request.variant = point.variant;
    request.chip = core::ChipConfig{point.n, spec_.perf};
    for (const auto& app : spec_.apps) {
      if (app.name == point.app) request.app = app;
    }
    for (const auto& growth : spec_.growths) {
      if (growth.name() == point.growth) request.growth = growth;
    }
    request.r = point.r;
    request.rl = point.rl;
    if (core::is_comm_variant(point.variant)) {
      request.comm_growth =
          core::comm_growth(noc::parse_topology(point.topology));
      request.comp_share = spec_.comp_share;
      job.topology = point.topology;
    }
    job.scenario = spec_.name;
    const explore::EvalResult result =
        explore::evaluate_job(job, &engine_.cache(), /*use_cache=*/true);
    const std::string line =
        "eval: variant=" +
        std::string(core::model_variant_name(result.variant)) +
        " n=" + format("%.9g", result.n) + " app=" + result.app +
        " growth=" + result.growth + " topology=" + result.topology +
        " r=" + format("%.9g", result.r) + " rl=" + format("%.9g", result.rl) +
        " feasible=" + (result.feasible ? "yes" : "no") +
        " cores=" + format("%.9g", result.cores) +
        " speedup=" + format("%.9g", result.speedup) +
        " source=" + (result.from_cache ? "archive" : "live") + "\n";
    return ok_header(QueryKind::kEval, 1) + line + "END\n";
  }

 private:
  explore::ScenarioSpec spec_;
  explore::ExploreEngine engine_{explore::EngineOptions{1}};
};

/// Counts the bytes read from archive.msca files through the env.
class CountingIoEnv : public util::IoEnv {
 public:
  std::uint64_t archive_bytes() const { return archive_bytes_; }

  util::IoResult new_writable(const std::string& path, bool truncate,
                              std::unique_ptr<util::WritableFile>* out)
      override {
    return base().new_writable(path, truncate, out);
  }
  util::IoResult read_file(const std::string& path,
                           std::string* out) override {
    util::IoResult result = base().read_file(path, out);
    count(path, out->size());
    return result;
  }
  util::IoResult read_file_range(const std::string& path,
                                 std::uint64_t offset, std::size_t count_,
                                 std::string* out) override {
    util::IoResult result =
        base().read_file_range(path, offset, count_, out);
    count(path, out->size());
    return result;
  }
  bool exists(const std::string& path) override {
    return base().exists(path);
  }
  util::IoResult file_size(const std::string& path,
                           std::uint64_t* out) override {
    return base().file_size(path, out);
  }
  util::IoResult rename_file(const std::string& from,
                             const std::string& to) override {
    return base().rename_file(from, to);
  }
  util::IoResult remove_file(const std::string& path) override {
    return base().remove_file(path);
  }
  util::IoResult truncate_file(const std::string& path,
                               std::uint64_t size) override {
    return base().truncate_file(path, size);
  }
  util::IoResult create_directories(const std::string& path) override {
    return base().create_directories(path);
  }
  util::IoResult list_dir(const std::string& path,
                          std::vector<std::string>* names) override {
    return base().list_dir(path, names);
  }

 private:
  static util::IoEnv& base() { return util::real_io_env(); }
  void count(const std::string& path, std::size_t bytes) {
    if (fs::path(path).filename() == "archive.msca") archive_bytes_ += bytes;
  }
  std::uint64_t archive_bytes_ = 0;
};

class EvalPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("mergescale_eval_path_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                .string();
    fs::remove_all(base_);
    dir_ = base_ + "/run";
  }
  void TearDown() override { fs::remove_all(base_); }

  /// `config`'s whole grid, as explore_cli sweeps it.
  static std::vector<explore::EvalResult> sweep(const std::string& config) {
    const search::SearchSpace space(explore::from_config(config, "serve"));
    explore::ExploreEngine engine(explore::EngineOptions{2});
    return search::run_sweep(engine, space,
                             search::ShardPlan(space.size(), 1).range(0));
  }

  /// Records `config`'s whole grid into `dir`, as explore_cli does.
  static std::vector<explore::EvalResult> record(const std::string& dir,
                                                 const std::string& config) {
    const std::vector<explore::EvalResult> results = sweep(config);
    search::RunLog::write_meta(dir, config);
    append(dir, results);
    return results;
  }

  /// One past kConfig's largest flat index: off-grid records are
  /// numbered from here, as the server numbers its live evaluations.
  static std::size_t grid_end() {
    return static_cast<std::size_t>(
        search::SearchSpace(explore::from_config(kConfig, "serve")).size());
  }

  static void append(const std::string& dir,
                     const std::vector<explore::EvalResult>& records) {
    search::RunLog log(dir);
    for (const auto& record : records) log.append(record);
    log.flush();
  }

  /// What explore_cli --archive does: dedup the directory's records into
  /// archive.msca and drop the row logs.
  static void archive(const std::string& dir) {
    const auto records = search::RunLog::dedup(search::RunLog::load(dir));
    search::write_archive(search::RunLog::archive_path(dir), records);
    fs::remove(search::RunLog::binary_results_path(dir));
  }

  /// Off-grid records the scenario's laws still resolve, numbered from
  /// `index`, evaluated like a live eval would be.
  static std::vector<explore::EvalResult> off_grid(std::size_t index,
                                                   double r = 2.0) {
    const explore::ScenarioSpec spec = explore::from_config(kConfig, "serve");
    std::vector<explore::EvalResult> out;
    for (const double rl : {24.0, 40.0, 48.0}) {
      explore::EvalJob job;
      job.request.variant = core::ModelVariant::kAsymmetric;
      job.request.chip = core::ChipConfig{96.0, spec.perf};
      job.request.app = spec.apps[0];
      job.request.growth = spec.growths[0];
      job.request.r = r;
      job.request.rl = rl;
      job.scenario = spec.name;
      job.index = index++;
      out.push_back(explore::evaluate_job(job, nullptr, false));
    }
    return out;
  }

  /// Records whose evaluation produced non-finite values, at off-grid
  /// points: every loader and the archive keep them as infeasible.
  static std::vector<explore::EvalResult> non_finite(std::size_t index) {
    std::vector<explore::EvalResult> out = off_grid(index);
    out[0].speedup = std::numeric_limits<double>::quiet_NaN();
    out[1].speedup = std::numeric_limits<double>::infinity();
    out[2].cores = -std::numeric_limits<double>::infinity();
    for (auto& record : out) {
      record.r = 3.0;  // distinct from off_grid()'s points
      record.feasible = true;
    }
    return out;
  }

  struct Served {
    std::unique_ptr<search::RunLog> log;
    std::unique_ptr<QueryServer> server;

    std::string stat(const std::string& key) const {
      const std::string reply = server->execute_line("stats");
      const std::size_t at = reply.find("\n" + key + "=");
      if (at == std::string::npos) return "<missing>";
      const std::size_t begin = at + key.size() + 2;
      return reply.substr(begin, reply.find('\n', begin) - begin);
    }
  };

  static std::unique_ptr<Served> serve(const std::string& dir) {
    auto served = std::make_unique<Served>();
    ServedRun run = open_served_run(dir);
    served->log = std::make_unique<search::RunLog>(dir);
    served->server = std::make_unique<QueryServer>(
        std::move(run), served->log.get(), ServerOptions{});
    return served;
  }

  static std::vector<std::string> scans(QueryServer& server) {
    std::vector<std::string> out;
    for (const char* line : {"best", "topk 1000", "pareto area", "pareto cores"}) {
      out.push_back(server.execute_line(line));
    }
    return out;
  }

  std::string base_;
  std::string dir_;
};

TEST_F(EvalPathTest, EveryRowAnswersAsTheMemoCachePathDid) {
  for (const bool archived : {true, false}) {
    SCOPED_TRACE(archived ? "archive.msca" : "result log only");
    fs::remove_all(dir_);
    const auto grid = record(dir_, kConfig);
    append(dir_, non_finite(grid_end()));
    if (archived) archive(dir_);

    const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
    MemoCacheOracle oracle(records, explore::from_config(kConfig, "serve"));
    auto served = serve(dir_);
    std::size_t infeasible = 0;
    for (const auto& record : records) {
      const std::string reply = served->server->execute_line(eval_line(record));
      EXPECT_EQ(reply, oracle.reply(record)) << eval_line(record);
      EXPECT_NE(reply.find(" source=archive\n"), std::string::npos) << reply;
      if (!record.feasible) ++infeasible;
    }
    EXPECT_GE(infeasible, 3u);  // the non-finite rows, at least
    EXPECT_EQ(served->server->live_evals(), 0u);
    EXPECT_EQ(served->stat("eval_hits"), std::to_string(records.size()));
  }
}

TEST_F(EvalPathTest, ALogTailOverTheArchiveNeverRanksAPointTwice) {
  const auto grid = record(dir_, kConfig);
  archive(dir_);
  // The tail: re-recorded archived points (their speedups inflated, so a
  // double rank would top every table), fresh points, and one fresh
  // point twice.
  std::vector<explore::EvalResult> tail;
  for (std::size_t i = 0; i < grid.size(); i += 37) {
    explore::EvalResult copy = grid[i];
    copy.speedup *= 10.0;
    tail.push_back(copy);
  }
  const auto fresh = off_grid(grid_end());
  tail.insert(tail.end(), fresh.begin(), fresh.end());
  tail.push_back(fresh[1]);
  append(dir_, tail);

  const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
  ASSERT_EQ(records.size(), grid.size() + fresh.size());
  auto served = serve(dir_);
  EXPECT_EQ(served->stat("archive_records"), std::to_string(records.size()));
  EXPECT_EQ(served->stat("delta_records"), std::to_string(fresh.size()));
  EXPECT_EQ(scans(*served->server), reference_scans(records));
  MemoCacheOracle oracle(records, explore::from_config(kConfig, "serve"));
  for (const auto& record : tail) {
    EXPECT_EQ(served->server->execute_line(eval_line(record)),
              oracle.reply(record));
  }
}

TEST_F(EvalPathTest, AFoldIntoAFreshDirectoryServesTheUnionOfItsMembers) {
  // The target: the grid archived, then a log tail of off-grid points and
  // a re-recorded archived point whose speedup is inflated (a double
  // rank would top every table).
  const auto grid = record(dir_, kConfig);
  archive(dir_);
  std::vector<explore::EvalResult> tail = off_grid(grid_end());
  explore::EvalResult rerecorded = grid[11];
  rerecorded.speedup *= 10.0;
  tail.push_back(rerecorded);
  append(dir_, tail);
  // The source, recorded under the same config: other off-grid points,
  // numbered from grid_end() as its own server would have numbered them,
  // and a speedup-inflated copy of an archived point, which loses to the
  // target's row.
  const std::string source = base_ + "/source";
  search::RunLog::write_meta(source, kConfig);
  std::vector<explore::EvalResult> foreign = off_grid(grid_end(), 3.0);
  explore::EvalResult duplicate = grid[5];
  duplicate.speedup *= 10.0;
  foreign.push_back(duplicate);
  append(source, foreign);

  std::vector<explore::EvalResult> everything = search::RunLog::load(dir_);
  const auto from_source = search::RunLog::load(source);
  everything.insert(everything.end(), from_source.begin(), from_source.end());
  const auto records = search::RunLog::dedup(everything);
  ASSERT_EQ(records.size(), grid.size() + 2 * (foreign.size() - 1));

  // explore_cli --archive --run-dir <fresh> --merge-from <target>,<source>
  const std::string fresh = base_ + "/union";
  ASSERT_TRUE(search::RunLog::fold(fresh, {dir_, source}).has_value());
  EXPECT_EQ(search::RunLog::read_meta(fresh).value_or(""), kConfig);
  auto served = serve(fresh);
  EXPECT_EQ(served->stat("archive_records"), std::to_string(records.size()));
  EXPECT_EQ(served->stat("delta_records"), "0");
  EXPECT_EQ(scans(*served->server), reference_scans(records));
  MemoCacheOracle oracle(records, explore::from_config(kConfig, "serve"));
  for (const auto& record : records) {
    const std::string reply = served->server->execute_line(eval_line(record));
    EXPECT_EQ(reply, oracle.reply(record)) << eval_line(record);
  }
  EXPECT_EQ(served->server->live_evals(), 0u);

  EXPECT_THROW(open_served_run(base_ + "/missing"), std::runtime_error);
}

TEST_F(EvalPathTest, ALiveEvalIsArchivedAndFoundAfterARestart) {
  const auto grid = record(dir_, kConfig);
  archive(dir_);
  const explore::EvalResult point = off_grid(0)[2];
  std::string live;
  {
    auto served = serve(dir_);
    live = served->server->execute_line(eval_line(point));
    ASSERT_NE(live.find(" source=live\n"), std::string::npos) << live;
  }
  // The live record is numbered past every flat index of the grid (it
  // has none: it is off the grid), so no flat-index lookup could find
  // it.
  const auto logged = [&] {
    std::vector<explore::EvalResult> out;
    search::RunLog::load_logs(dir_, &out);
    return out;
  }();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].index, grid_end());
  archive(dir_);

  auto restarted = serve(dir_);
  EXPECT_EQ(restarted->stat("delta_records"), "0");
  const std::string again = restarted->server->execute_line(eval_line(point));
  EXPECT_NE(again.find(" source=archive\n"), std::string::npos) << again;
  EXPECT_EQ(live.substr(0, live.find("source=")),
            again.substr(0, again.find("source=")));
  EXPECT_EQ(restarted->server->live_evals(), 0u);
}

TEST_F(EvalPathTest, LiveEvalIndicesNeverMatchAnArchivedRowsIndex) {
  // The sweep skips the grid's inert-axis twins, so its indices have
  // gaps and run past the row count.
  record(dir_, kConfig);
  archive(dir_);
  std::set<std::size_t> held;
  for (const auto& record : search::RunLog::load(dir_)) {
    held.insert(record.index);
  }
  ASSERT_GT(*held.rbegin(), held.size());
  const auto points = off_grid(0);
  {
    auto served = serve(dir_);
    const std::string reply = served->server->execute_line(eval_line(points[0]));
    ASSERT_NE(reply.find(" source=live\n"), std::string::npos) << reply;
  }
  // After a restart the first live record sits in the delta.
  auto restarted = serve(dir_);
  EXPECT_EQ(restarted->stat("delta_records"), "1");
  for (std::size_t i = 1; i < points.size(); ++i) {
    const std::string reply =
        restarted->server->execute_line(eval_line(points[i]));
    ASSERT_NE(reply.find(" source=live\n"), std::string::npos) << reply;
  }
  std::vector<explore::EvalResult> live;
  search::RunLog::load_logs(dir_, &live);
  ASSERT_EQ(live.size(), points.size());
  for (const auto& record : live) {
    EXPECT_TRUE(held.insert(record.index).second)
        << "live index " << record.index << " is already held";
  }
}

TEST_F(EvalPathTest, AFoldOfServedDirectoriesAnswersEveryPointFromTheArchive) {
  // `dir_` holds the grid but a few points and `other` none of it.  Both
  // serve live evals of off-grid points, numbered from grid_end() in each
  // directory, so their records collide on indices past the grid.
  // `other` also holds grid points numbered past the grid, as older
  // builds numbered on-grid live evals.  explore_cli --archive
  // --merge-from then folds rows that share those indices.
  const std::string other = base_ + "/other";
  const auto grid = sweep(kConfig);
  std::vector<explore::EvalResult> held, missing;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    (i % 50 == 7 ? missing : held).push_back(grid[i]);
  }
  ASSERT_GE(missing.size(), 3u);
  search::RunLog::write_meta(dir_, kConfig);
  append(dir_, held);
  archive(dir_);
  search::RunLog::write_meta(other, kConfig);

  const auto points = off_grid(0);
  const auto expect_live = [](Served& served, const std::string& line) {
    const std::string reply = served.server->execute_line(line);
    EXPECT_NE(reply.find(" source=live\n"), std::string::npos) << reply;
  };
  {
    auto served = serve(dir_);
    for (const auto& point : points) expect_live(*served, eval_line(point));
    expect_live(*served, eval_line(missing[0]));
  }
  {
    auto served = serve(other);
    for (explore::EvalResult point : points) {
      point.r = 3.0;  // other off-grid points
      expect_live(*served, eval_line(point));
    }
  }
  // Off-grid live evals are numbered past the grid; an on-grid one takes
  // the index the sweep records for its point.
  std::vector<explore::EvalResult> logged;
  search::RunLog::load_logs(dir_, &logged);
  ASSERT_EQ(logged.size(), points.size() + 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(logged[i].index, grid_end() + i);
  }
  EXPECT_EQ(logged.back().index, missing[0].index);
  std::vector<explore::EvalResult> old_numbered(missing.begin() + 1,
                                                missing.end());
  for (std::size_t i = 0; i < old_numbered.size(); ++i) {
    old_numbered[i].index = grid_end() + i;
  }
  append(other, old_numbered);

  search::RunLog::fold(dir_, {other});
  const auto records = search::RunLog::load(dir_);
  ASSERT_EQ(records.size(), grid.size() + 2 * points.size());
  std::map<std::size_t, int> past_grid;
  for (const auto& record : records) {
    if (record.index >= grid_end()) ++past_grid[record.index];
  }
  EXPECT_EQ(past_grid.at(grid_end()), 3);  // two live evals, one old row

  MemoCacheOracle oracle(records, explore::from_config(kConfig, "serve"));
  auto served = serve(dir_);
  EXPECT_EQ(served->stat("delta_records"), "0");
  for (const auto& record : records) {
    const std::string reply = served->server->execute_line(eval_line(record));
    EXPECT_EQ(reply, oracle.reply(record)) << eval_line(record);
    EXPECT_NE(reply.find(" source=archive\n"), std::string::npos) << reply;
  }
  EXPECT_EQ(served->server->live_evals(), 0u);
}

TEST_F(EvalPathTest, StartUpReadsUnderOnePercentOfTheArchive) {
  // 147,456 rows in blocks of 512: a ~9.9 MB archive.  What start-up and
  // one `best` must read is the header, zone maps, CRC table and
  // dictionary (~120 bytes per block), the best block's feasible/
  // speedup/index slices and one row's block of every column.
  std::string config =
      "apps=kmeans,fuzzy,hop;budgets=2048;growths=linear,log,parallel;"
      "variants=asymmetric;topologies=mesh;small-cores=1,2,3,4,5,6,7,8;"
      "sizes=1";
  for (int size = 2; size <= 2048; ++size) {
    config += ',';
    config += std::to_string(size);
  }
  config += ";comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";
  const explore::ScenarioSpec spec = explore::from_config(config, "serve");
  explore::ExploreEngine engine(explore::EngineOptions{2});
  const std::vector<explore::EvalResult> records = engine.run(spec);
  search::RunLog::write_meta(dir_, config);
  const search::ArchiveStats stats = search::write_archive(
      search::RunLog::archive_path(dir_), records, /*block_rows=*/512);

  CountingIoEnv counting;
  std::string reply;
  {
    util::ScopedIoEnv scope(&counting);
    QueryServer server(open_served_run(dir_), nullptr, ServerOptions{});
    reply = server.execute_line("best");
  }
  EXPECT_EQ(reply, ok_header(QueryKind::kBest, 1) +
                       explore::best_line(*explore::best_result(records)) +
                       "\nEND\n");
  EXPECT_GT(counting.archive_bytes(), 0u);
  EXPECT_LT(counting.archive_bytes(), stats.bytes / 100)
      << counting.archive_bytes() << " of " << stats.bytes << " bytes";
}

}  // namespace
}  // namespace mergescale::serve
