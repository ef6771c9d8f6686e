#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "serve/served_run.hpp"

namespace mergescale::serve {
namespace {

// The exact fingerprint explore_cli would have recorded for this space:
// the archive's scenario is reconstructed from it, so the tests exercise
// the same meta round-trip a real run directory goes through.
constexpr const char* kConfig =
    "apps=kmeans;budgets=64,128;growths=linear;variants=asymmetric;"
    "topologies=mesh;small-cores=1,4;sizes=8,16,32;comp-share=0.5;"
    "f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_serve_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Records a real run directory: meta + one result per job of the
  /// config's scenario, exactly what explore_cli leaves behind.
  void record() {
    const explore::ScenarioSpec spec = explore::from_config(kConfig, "serve");
    explore::ExploreEngine engine(explore::EngineOptions{2});
    const std::vector<explore::EvalResult> results = engine.run(spec);
    ASSERT_FALSE(results.empty());
    search::RunLog::write_meta(dir_, kConfig);
    search::RunLog log(dir_);
    for (const auto& result : results) log.append(result);
    log.flush();
  }

  /// An in-process server over the recorded directory, opened through
  /// the real start-up path, live appends going back to the same run
  /// log.  Not start()ed — execute_line drives the full query path (gate
  /// included) without sockets.
  struct Harness {
    std::unique_ptr<search::RunLog> log;
    std::unique_ptr<QueryServer> server;

    /// The value of one `stats` key.
    std::string stat(const std::string& key) {
      const std::string reply = server->execute_line("stats");
      const std::size_t at = reply.find("\n" + key + "=");
      if (at == std::string::npos) return "<missing>";
      const std::size_t begin = at + key.size() + 2;
      return reply.substr(begin, reply.find('\n', begin) - begin);
    }
  };

  std::unique_ptr<Harness> serve(std::uint64_t live_budget = 100,
                                 bool with_log = true) {
    auto harness = std::make_unique<Harness>();
    ServedRun run = open_served_run(dir_);
    ServedRecords records = open_served_records(dir_);
    if (with_log) {
      harness->log = std::make_unique<search::RunLog>(dir_);
    }
    ServerOptions options;
    options.live_budget = live_budget;
    harness->server = std::make_unique<QueryServer>(
        std::move(run), std::move(records), harness->log.get(), options);
    return harness;
  }

  /// Every record the directory holds, deduplicated: what the served
  /// union must answer over.
  std::vector<explore::EvalResult> union_records() const {
    return search::RunLog::dedup(search::RunLog::load(dir_));
  }

  std::string dir_;
};

TEST_F(ServerTest, BestIsByteIdenticalToTheCliRendering) {
  record();
  auto harness = serve();
  const auto records = union_records();
  const explore::EvalResult* best = explore::best_result(records);
  ASSERT_NE(best, nullptr);
  const std::string expected =
      ok_header(QueryKind::kBest, 1) + explore::best_line(*best) + "\nEND\n";
  QueryKind kind;
  EXPECT_EQ(harness->server->execute_line("best", &kind), expected);
  EXPECT_EQ(kind, QueryKind::kBest);
}

TEST_F(ServerTest, TopkIsByteIdenticalToTheCliTable) {
  record();
  auto harness = serve();
  const std::string payload =
      explore::to_table(explore::top_k(union_records(), 3))
          .to_text("top-k designs by speedup");
  const std::string expected =
      ok_header(QueryKind::kTopK, count_lines(payload)) + payload + "END\n";
  EXPECT_EQ(harness->server->execute_line("topk 3"), expected);
}

TEST_F(ServerTest, ParetoIsByteIdenticalToTheCliTable) {
  record();
  auto harness = serve();
  for (const auto& [token, metric, title] :
       {std::tuple{"pareto area", explore::CostMetric::kCoreArea,
                   "Pareto frontier (speedup vs. core area)"},
        std::tuple{"pareto cores", explore::CostMetric::kCoreCount,
                   "Pareto frontier (speedup vs. core count)"}}) {
    const std::string payload =
        explore::to_table(
            explore::pareto_frontier(union_records(), metric))
            .to_text(title);
    const std::string expected =
        ok_header(QueryKind::kPareto, count_lines(payload)) + payload + "END\n";
    EXPECT_EQ(harness->server->execute_line(token), expected) << token;
  }
}

TEST_F(ServerTest, OnGridEvalIsServedFromTheArchive) {
  record();
  auto harness = serve();
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=linear r=1 rl=8");
  EXPECT_NE(reply.find("OK eval lines=1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("source=archive"), std::string::npos) << reply;
  EXPECT_NE(reply.find("feasible=yes"), std::string::npos) << reply;
  EXPECT_EQ(harness->server->live_evals(), 0u);
}

TEST_F(ServerTest, OffGridEvalGoesLiveOnceThenHitsTheArchive) {
  record();
  auto harness = serve();
  const std::string query =
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32";
  const std::string first = harness->server->execute_line(query);
  EXPECT_NE(first.find("source=live"), std::string::npos) << first;
  EXPECT_EQ(harness->server->live_evals(), 1u);

  const std::string second = harness->server->execute_line(query);
  EXPECT_NE(second.find("source=archive"), std::string::npos) << second;
  EXPECT_EQ(harness->server->live_evals(), 1u);
  // Identical numbers both times: the archived answer IS the live one.
  EXPECT_EQ(first.substr(0, first.find("source=")),
            second.substr(0, second.find("source=")));
}

TEST_F(ServerTest, LiveEvalSurvivesARestart) {
  record();
  const std::string query =
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32";
  std::string first;
  {
    auto harness = serve();
    first = harness->server->execute_line(query);
    ASSERT_NE(first.find("source=live"), std::string::npos) << first;
  }  // server + log torn down: the record is on disk
  auto restarted = serve();
  EXPECT_EQ(restarted->stat("archive_records"),
            std::to_string(
                explore::from_config(kConfig, "serve").job_count() + 1));
  const std::string second = restarted->server->execute_line(query);
  EXPECT_NE(second.find("source=archive"), std::string::npos) << second;
  EXPECT_EQ(restarted->server->live_evals(), 0u);
  // Byte-identical coordinates and speedup across the restart.
  EXPECT_EQ(first.substr(0, first.find("source=")),
            second.substr(0, second.find("source=")));
}

TEST_F(ServerTest, ExhaustedLiveBudgetIsARefusalNotACrash) {
  record();
  auto harness = serve(/*live_budget=*/0);
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=97 app=kmeans growth=linear r=2 rl=32");
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
  EXPECT_NE(reply.find("budget"), std::string::npos) << reply;
  EXPECT_EQ(harness->server->live_evals(), 0u);
  // On-grid (archived) answers still flow: the budget gates compute, not
  // the archive.
  EXPECT_EQ(harness->server
                ->execute_line(
                    "eval variant=asymmetric n=64 app=kmeans growth=linear "
                    "r=1 rl=8")
                .rfind("OK eval", 0),
            0u);
}

TEST_F(ServerTest, EvalRefusesCoordinatesOutsideTheScenario) {
  record();
  auto harness = serve();
  // Laws outside the scenario could not be resolved back after a
  // restart, so they are refused (the grid coordinates n/r/rl stay free).
  const std::string bad_app = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=hop growth=linear r=1 rl=8");
  EXPECT_EQ(bad_app.rfind("ERR ", 0), 0u);
  EXPECT_NE(bad_app.find("not part of this archive"), std::string::npos)
      << bad_app;
  const std::string bad_growth = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=log r=1 rl=8");
  EXPECT_EQ(bad_growth.rfind("ERR ", 0), 0u);
  const std::string no_rl = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=linear r=1");
  EXPECT_EQ(no_rl.rfind("ERR ", 0), 0u);
  const std::string comm_without_topology = harness->server->execute_line(
      "eval variant=symmetric-comm n=64 app=kmeans growth=linear r=8");
  EXPECT_EQ(comm_without_topology.rfind("ERR ", 0), 0u);
  const std::string foreign_topology = harness->server->execute_line(
      "eval variant=symmetric-comm n=64 app=kmeans growth=linear r=8 "
      "topology=torus");
  EXPECT_EQ(foreign_topology.rfind("ERR ", 0), 0u);
  EXPECT_NE(foreign_topology.find("topology"), std::string::npos);
  // None of the refusals spent budget or touched the log.
  EXPECT_EQ(harness->server->live_evals(), 0u);
}

TEST_F(ServerTest, MalformedLinesGetOneLineErrors) {
  record();
  auto harness = serve();
  for (const char* line : {"bogus", "topk 0", "", "eval variant=nope n=1"}) {
    const std::string reply = harness->server->execute_line(line);
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << "line: '" << line << "'";
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
  }
  // Every reply — refusals included — counts as an answered query.
  EXPECT_EQ(harness->server->queries_answered(), 4u);
}

TEST_F(ServerTest, QuitAndStatsAreFramedReplies) {
  record();
  auto harness = serve();
  QueryKind kind;
  EXPECT_EQ(harness->server->execute_line("quit", &kind),
            "OK quit lines=0\nEND\n");
  EXPECT_EQ(kind, QueryKind::kQuit);
  const std::string stats = harness->server->execute_line("stats");
  EXPECT_EQ(stats.rfind("OK stats", 0), 0u);
  for (const char* key :
       {"archive_records=", "delta_records=", "eval_hits=", "eval_index_ms=",
        "queries=", "live_budget="}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }
}

TEST_F(ServerTest, ServesWithoutALogButCannotPersist) {
  record();
  auto harness = serve(/*live_budget=*/100, /*with_log=*/false);
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32");
  EXPECT_NE(reply.find("source=live"), std::string::npos) << reply;
  // The answer was served (and held in the delta) even with nowhere to
  // persist it.
  EXPECT_EQ(harness->server->live_evals(), 1u);
}

TEST_F(ServerTest, OpenServedRunRefusesForeignConfigsAndSelfUnionDedups) {
  record();
  // A second directory recorded under a different space must be refused,
  // exactly as RunLog::merge would refuse it.
  const std::string foreign = dir_ + "/foreign";
  search::RunLog::write_meta(
      foreign,
      "apps=hop;budgets=32;growths=log;variants=symmetric;topologies=ring;"
      "small-cores=1;sizes=8;comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;"
      "strategy=exhaustive");
  {
    search::RunLog log(foreign);
    explore::EvalResult result;
    result.scenario = "foreign";
    result.app = "hop";
    result.growth = "log";
    result.n = 32.0;
    result.r = 8.0;
    log.append(result);
    log.flush();
  }
  EXPECT_THROW(open_served_run(dir_, {foreign}), std::runtime_error);
  std::filesystem::remove_all(foreign);

  // Unioning a directory with itself must not double-count: the served
  // records are deduplicated by design point.
  EXPECT_NO_THROW(open_served_run(dir_, {dir_}));
  const ServedRecords plain = open_served_records(dir_);
  const ServedRecords self_union = open_served_records(dir_, {dir_});
  EXPECT_EQ(self_union.archive.row_count() + self_union.delta.size(),
            plain.archive.row_count() + plain.delta.size());
}

TEST_F(ServerTest, OpenServedRecordsRefusesARetiredNdjsonLog) {
  // Archived, so the refusal cannot hide behind the archive fast path:
  // the delta decode must refuse an NDJSON log, not skip it.
  record();
  search::write_archive(search::RunLog::archive_path(dir_), union_records());
  std::filesystem::remove(search::RunLog::binary_results_path(dir_));
  std::ofstream(std::filesystem::path(dir_) / "results.ndjson") << "{}\n";
  try {
    open_served_records(dir_);
    FAIL() << "served a directory holding results.ndjson";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("results.ndjson"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ServerTest, ArchiveBackedAnswersAreByteIdenticalToLogBacked) {
  record();
  // Capture the log-backed server's answers first.
  std::vector<std::string> reference;
  {
    auto log_backed = serve();
    for (const char* line : {"best", "topk 5", "pareto area", "pareto cores"}) {
      reference.push_back(log_backed->server->execute_line(line));
    }
  }

  // What explore_cli --archive does: dedup the merged log, write the
  // columnar archive, drop the row logs.
  const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
  ASSERT_FALSE(records.empty());
  search::write_archive(search::RunLog::archive_path(dir_), records);
  std::filesystem::remove(search::RunLog::binary_results_path(dir_));

  auto archive_backed = serve();
  // Every record lives in the file-backed zone-map reader; nothing was
  // decoded into the delta.
  EXPECT_EQ(archive_backed->stat("archive_records"),
            std::to_string(records.size()));
  EXPECT_EQ(archive_backed->stat("delta_records"), "0");
  std::size_t at = 0;
  for (const char* line : {"best", "topk 5", "pareto area", "pareto cores"}) {
    EXPECT_EQ(archive_backed->server->execute_line(line), reference[at++])
        << line;
  }
}

TEST_F(ServerTest, LiveEvalsFoldIntoArchiveBackedAnswers) {
  record();
  const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
  search::write_archive(search::RunLog::archive_path(dir_), records);
  std::filesystem::remove(search::RunLog::binary_results_path(dir_));

  // A live (off-grid) eval lands in the server's delta list; every
  // later answer must fold it in on top of the file-backed archive.
  auto harness = serve();
  ASSERT_EQ(harness->stat("delta_records"), "0");
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32");
  ASSERT_NE(reply.find("source=live"), std::string::npos) << reply;
  const std::string topk_after = harness->server->execute_line("topk 5");
  const std::string best_after = harness->server->execute_line("best");
  harness.reset();  // flush the live record into the run log

  // A restart serves archive + the appended record (decoded into the
  // delta) and must land on byte-identical answers — the delta fold is
  // not a different query engine, just a deferred part of the archive.
  auto restarted = serve();
  EXPECT_EQ(restarted->stat("archive_records"),
            std::to_string(records.size() + 1));
  EXPECT_EQ(restarted->stat("delta_records"), "1");
  EXPECT_EQ(restarted->server->execute_line("topk 5"), topk_after);
  EXPECT_EQ(restarted->server->execute_line("best"), best_after);
}

TEST_F(ServerTest, RunLogDedupKeepsFirstOccurrence) {
  explore::EvalResult a;
  a.app = "kmeans";
  a.growth = "linear";
  a.n = 64.0;
  a.r = 1.0;
  a.rl = 8.0;
  a.speedup = 10.0;
  explore::EvalResult duplicate = a;
  duplicate.speedup = 99.0;  // same design point, later record
  explore::EvalResult other = a;
  other.rl = 16.0;
  const auto kept = search::RunLog::dedup({a, duplicate, other});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].speedup, 10.0);
  EXPECT_DOUBLE_EQ(kept[1].rl, 16.0);
}

}  // namespace
}  // namespace mergescale::serve
