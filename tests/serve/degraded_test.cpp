// Graceful degradation: when the run log starts failing, the server
// sheds live evaluations with a typed error, stays up for archive
// queries, counts what it shed, and shuts down cleanly — it never
// serves an answer it could not make durable.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/served_run.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/io_env.hpp"

namespace mergescale::serve {
namespace {

constexpr const char* kConfig =
    "apps=kmeans;budgets=64,128;growths=linear;variants=asymmetric;"
    "topologies=mesh;small-cores=1,4;sizes=8,16,32;comp-share=0.5;"
    "f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

constexpr const char* kOffGridEval =
    "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32";
constexpr const char* kOtherOffGridEval =
    "eval variant=asymmetric n=96 app=kmeans growth=linear r=3 rl=32";
constexpr const char* kOnGridEval =
    "eval variant=asymmetric n=64 app=kmeans growth=linear r=1 rl=8";

class DegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_degraded_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);

    const search::SearchSpace space(explore::from_config(kConfig, "serve"));
    explore::ExploreEngine engine(explore::EngineOptions{2});
    const std::vector<explore::EvalResult> results = search::run_sweep(
        engine, space, search::ShardPlan(space.size(), 1).range(0));
    ASSERT_FALSE(results.empty());
    search::RunLog::write_meta(dir_, kConfig);
    search::RunLog log(dir_);
    for (const auto& result : results) log.append(result);
    log.flush();
  }
  void TearDown() override {
    util::FailPoints::instance().disarm_all();
    std::filesystem::remove_all(dir_);
  }

  struct Harness {
    std::unique_ptr<search::RunLog> log;
    std::unique_ptr<QueryServer> server;
  };

  std::unique_ptr<Harness> serve(std::uint64_t live_budget = 100) {
    auto harness = std::make_unique<Harness>();
    ServedRun run = open_served_run(dir_);
    harness->log = std::make_unique<search::RunLog>(dir_);
    ServerOptions options;
    options.live_budget = live_budget;
    harness->server = std::make_unique<QueryServer>(
        std::move(run), harness->log.get(), options);
    return harness;
  }

  std::string dir_;
};

TEST_F(DegradedTest, LogFailureShedsLiveEvalsButKeepsServingTheArchive) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  auto harness = serve();
  EXPECT_FALSE(harness->server->degraded());

  // The disk under the run log dies (sticky, ENOSPC-style).
  util::FailPoints::instance().arm("io.write", "always@results");

  // A live-eval miss cannot be made durable: typed error, no answer.
  const std::string reply = harness->server->execute_line(kOffGridEval);
  EXPECT_EQ(reply.rfind("ERR degraded(archive-only)", 0), 0u) << reply;
  EXPECT_TRUE(harness->server->degraded());
  EXPECT_EQ(harness->server->live_evals(), 0u);

  // Degradation is sticky: later misses shed without touching the disk.
  const std::string second = harness->server->execute_line(kOtherOffGridEval);
  EXPECT_EQ(second.rfind("ERR degraded(archive-only)", 0), 0u) << second;
  EXPECT_EQ(harness->server->shed_degraded(), 2u);

  // Archive queries still answer normally.
  for (const char* query : {"best", "topk 3", "pareto area", kOnGridEval}) {
    const std::string answer = harness->server->execute_line(query);
    EXPECT_EQ(answer.rfind("OK ", 0), 0u) << query << " -> " << answer;
  }

  // The stats surface reports the degradation.
  const std::string stats = harness->server->execute_line("stats");
  EXPECT_NE(stats.find("degraded=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("shed_degraded=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("shed_busy=0"), std::string::npos) << stats;
}

TEST_F(DegradedTest, DegradedModeNeverPollutesTheDelta) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  auto harness = serve();
  util::FailPoints::instance().arm("io.write", "always@results");
  const std::string reply = harness->server->execute_line(kOffGridEval);
  EXPECT_EQ(reply.rfind("ERR degraded(archive-only)", 0), 0u) << reply;
  util::FailPoints::instance().disarm_all();

  // Had the failed answer entered the delta, a restarted server (whose
  // log never recorded it) would disagree with this one.  The miss must
  // still be a miss — and this server is degraded for good, so it sheds
  // even now that the disk recovered.
  const std::string after = harness->server->execute_line(kOffGridEval);
  EXPECT_EQ(after.rfind("ERR degraded(archive-only)", 0), 0u) << after;
  EXPECT_EQ(harness->server->live_evals(), 0u);
}

TEST_F(DegradedTest, ExhaustedBudgetShedsWithTypedBusyError) {
  auto harness = serve(/*live_budget=*/0);
  const std::string reply = harness->server->execute_line(kOffGridEval);
  EXPECT_EQ(reply.rfind("ERR busy", 0), 0u) << reply;
  EXPECT_EQ(harness->server->shed_busy(), 1u);
  EXPECT_FALSE(harness->server->degraded());  // budget != broken disk

  const std::string stats = harness->server->execute_line("stats");
  EXPECT_NE(stats.find("degraded=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("shed_busy=1"), std::string::npos) << stats;

  // On-grid evals cost nothing and still answer.
  EXPECT_EQ(harness->server->execute_line(kOnGridEval).rfind("OK ", 0), 0u);
}

TEST_F(DegradedTest, DegradedServerStartsAndStopsCleanly) {
  util::FaultyIoEnv faulty;
  util::ScopedIoEnv scope(&faulty);
  auto harness = serve();
  harness->server->start();
  util::FailPoints::instance().arm("io.write", "always@results");
  EXPECT_EQ(harness->server->execute_line(kOffGridEval)
                .rfind("ERR degraded(archive-only)", 0),
            0u);
  EXPECT_EQ(harness->server->execute_line("best").rfind("OK ", 0), 0u);
  harness->server->stop();  // clean shutdown while degraded
  EXPECT_TRUE(harness->server->degraded());
}

}  // namespace
}  // namespace mergescale::serve
