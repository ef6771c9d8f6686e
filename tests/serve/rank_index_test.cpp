// The server's ranking replies against a full scan.  best/topk read
// only the head of the delta's rank index and pareto folds the delta
// into one per-cost reduction, so these tests craft the ties that could
// tell those shortcuts from a scan — equal speedups, indices repeated
// inside the archive, inside the delta and across the two, infeasible
// rows, equal costs spread over many archive blocks — and require every
// reply to be byte-equal to the reference over load_all() followed by
// the delta in insertion order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "explore/engine.hpp"
#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

#include "reference_scans.hpp"

namespace mergescale::serve {
namespace {

namespace fs = std::filesystem;

constexpr const char* kConfig =
    "apps=kmeans,hop;budgets=64,128;growths=linear,log;"
    "variants=symmetric,asymmetric;topologies=mesh;small-cores=1,4;"
    "sizes=4,8,16,32,64;comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;"
    "strategy=exhaustive";

/// Off-grid what-if points (budgets 96 and 256 are not recorded), so
/// each answers live once; the 256-BCE chips outrank the whole grid.
std::vector<std::string> live_lines() {
  std::vector<std::string> lines;
  for (const char* n : {"96", "256"}) {
    for (const char* app : {"kmeans", "hop"}) {
      for (const char* r : {"2", "3"}) {
        const std::string point = std::string(" n=") + n + " app=" + app +
                                  " growth=linear r=" + r;
        lines.push_back("eval variant=symmetric" + point);
        for (const char* rl : {"6", "24"}) {
          lines.push_back("eval variant=asymmetric" + point + " rl=" + rl);
        }
      }
    }
  }
  return lines;
}

/// What the server records for a live `line`: the same job, evaluated
/// the same way, numbered `index`.
explore::EvalResult live_record(const QueryServer& server,
                                const std::string& line, std::size_t index) {
  std::string error;
  const std::optional<Query> query = parse_query(line, &error);
  EXPECT_TRUE(query.has_value()) << error;
  explore::EvalResult record = explore::evaluate_job(
      server.resolve_eval(*query), nullptr, /*use_cache=*/false);
  record.index = index;
  return record;
}

/// The scenario's grid with its ranking fields rewritten into ties: a
/// quarter of the records are twins of the three best live points (their
/// exact speedup and core count, numbered just past the row count), the
/// rest get whole-number speedups, core counts in steps of 4 and indices
/// from a range a third the record count, and every seventh record is
/// infeasible.  Design points stay distinct, as a deduplicated archive
/// and delta hold them.
std::vector<explore::EvalResult> crafted_grid(
    const explore::ScenarioSpec& spec, std::uint64_t seed,
    const std::vector<explore::EvalResult>& live) {
  explore::ExploreEngine engine(explore::EngineOptions{1});
  std::vector<explore::EvalResult> grid = engine.run(spec);
  const std::vector<explore::EvalResult> top = explore::top_k(live, 3);
  util::Xoshiro256 rng(seed);
  const std::size_t first_live = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    explore::EvalResult& record = grid[i];
    if (rng.bounded(4) == 0) {
      // A twin of a top live point, numbered past the row count.
      const explore::EvalResult& twin =
          top[static_cast<std::size_t>(rng.bounded(top.size()))];
      record.speedup = twin.speedup;
      record.cores = twin.cores;
      record.index =
          first_live + static_cast<std::size_t>(rng.bounded(live.size()));
    } else {
      record.speedup = std::round(record.speedup);
      record.cores = 4.0 * std::round(record.cores / 4.0);
      record.index = first_live * 2 / 3 +
                     static_cast<std::size_t>(rng.bounded(first_live / 3));
    }
    if (i % 7 == 3) record.feasible = false;
  }
  return grid;
}

class RankIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mergescale_rank_index_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A server over a crafted archive (blocks of 8 rows, so equal costs
  /// span many blocks) plus a crafted start-up delta, logging live
  /// evaluations to `log` when non-null.  `archived` and `delta` receive
  /// the union the server answers over, in reference order.
  std::unique_ptr<QueryServer> serve(std::uint64_t seed,
                                     search::RunLog* log,
                                     std::vector<explore::EvalResult>* archived,
                                     std::vector<explore::EvalResult>* delta) {
    const explore::ScenarioSpec spec = explore::from_config(kConfig, "serve");
    // Live speedups first, so crafted records can tie with them; a
    // throwaway server resolves the lines as the real one will.
    std::vector<explore::EvalResult> live;
    {
      QueryServer probe(
          ServedRun{dir_, kConfig, spec,
                    ServedArchive(search::ArchiveReader::from_records({}),
                                  spec),
                    {}},
          nullptr, ServerOptions{});
      for (const std::string& line : live_lines()) {
        live.push_back(live_record(probe, line, 0));
      }
    }
    util::Xoshiro256 rng(seed);
    std::vector<explore::EvalResult> to_archive;
    delta->clear();
    for (explore::EvalResult& record : crafted_grid(spec, seed, live)) {
      (rng.bounded(3) == 0 ? *delta : to_archive).push_back(std::move(record));
    }
    search::ArchiveReader archive =
        search::ArchiveReader::from_records(to_archive, /*block_rows=*/8);
    *archived = archive.load_all();
    return std::make_unique<QueryServer>(
        ServedRun{dir_, kConfig, spec,
                  ServedArchive(std::move(archive), spec), *delta},
        log, ServerOptions{});
  }

  std::string dir_;
};

/// The index the server gives its first live evaluation: past every
/// grid index and every index the archive or the delta holds.
std::size_t first_live_index(const std::vector<explore::EvalResult>& archived,
                             const std::vector<explore::EvalResult>& delta) {
  std::size_t first = static_cast<std::size_t>(
      search::SearchSpace(explore::from_config(kConfig, "serve")).size());
  for (const auto* records : {&archived, &delta}) {
    for (const explore::EvalResult& record : *records) {
      first = std::max(first, record.index + 1);
    }
  }
  return first;
}

std::vector<explore::EvalResult> concat(
    std::vector<explore::EvalResult> head,
    const std::vector<explore::EvalResult>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST_F(RankIndexTest, RepliesMatchAFullScanThroughCraftedTies) {
  const std::vector<std::string> lines = live_lines();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<explore::EvalResult> archived, delta;
    auto server = serve(seed, nullptr, &archived, &delta);
    const std::size_t first_live = first_live_index(archived, delta);
    std::set<std::string> evaluated;
    util::Xoshiro256 rng(seed * 7919);
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.bounded(9);
      if (op < 3) {
        const std::string& line =
            lines[static_cast<std::size_t>(rng.bounded(lines.size()))];
        const std::string reply = server->execute_line(line);
        const bool fresh = evaluated.insert(line).second;
        ASSERT_NE(reply.find(fresh ? " source=live\n" : " source=archive\n"),
                  std::string::npos)
            << line << "\n" << reply;
        if (fresh) {
          delta.push_back(live_record(*server, line,
                                      first_live + evaluated.size() - 1));
        }
        continue;
      }
      const auto records = concat(archived, delta);
      switch (op) {
        case 3:
          ASSERT_EQ(server->execute_line("best"), reference_best(records));
          break;
        case 4:
          ASSERT_EQ(server->execute_line("topk 1"),
                    reference_topk(records, 1));
          break;
        case 5:
          ASSERT_EQ(server->execute_line("topk 3"),
                    reference_topk(records, 3));
          break;
        case 6:
          ASSERT_EQ(server->execute_line("topk 1000"),
                    reference_topk(records, 1000));
          break;
        case 7:
          ASSERT_EQ(server->execute_line("pareto area"),
                    reference_pareto(records, explore::CostMetric::kCoreArea));
          break;
        default:
          ASSERT_EQ(server->execute_line("pareto cores"),
                    reference_pareto(records,
                                     explore::CostMetric::kCoreCount));
          break;
      }
    }
    // Every point went live once, and a 256-BCE chip's speedup tops the
    // union (a crafted twin at a lower index may hold it).
    EXPECT_EQ(server->live_evals(), evaluated.size());
    double live_best = 0.0;
    for (const std::string& line : lines) {
      live_best = std::max(live_best, live_record(*server, line, 0).speedup);
    }
    EXPECT_EQ(explore::best_result(concat(archived, delta))->speedup,
              live_best);
  }
}

TEST_F(RankIndexTest, RacingLiveEvalsKeepRepliesMonotoneAndExact) {
  std::vector<explore::EvalResult> archived, delta;
  search::RunLog log(dir_);
  auto server = serve(11, &log, &archived, &delta);
  const std::vector<std::string> lines = live_lines();
  constexpr int kThreads = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      double last_best = 0.0;
      for (int step = 0; step < 120 && failures[t].empty(); ++step) {
        std::string line;
        switch (rng.bounded(6)) {
          case 0:
          case 1:
            line = lines[static_cast<std::size_t>(rng.bounded(lines.size()))];
            break;
          case 2: line = "best"; break;
          case 3: line = rng.bounded(2) ? "topk 1" : "topk 3"; break;
          case 4: line = "topk 1000"; break;
          default:
            line = rng.bounded(2) ? "pareto area" : "pareto cores";
            break;
        }
        const std::string reply = server->execute_line(line);
        if (reply.rfind("OK ", 0) != 0) {
          failures[t] = line + " -> " + reply;
        } else if (line == "best") {
          // A best reply's speedup never falls: the union only grows.
          const double speedup =
              std::stod(reply.substr(reply.rfind(" speedup ") + 9));
          if (speedup < last_best) {
            failures[t] = "best fell from " + std::to_string(last_best) +
                          " to " + std::to_string(speedup);
          }
          last_best = speedup;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  // The log holds the live evaluations in delta insertion order.
  std::vector<explore::EvalResult> live;
  search::RunLog::load_logs(dir_, &live);
  EXPECT_EQ(live.size(), server->live_evals());
  EXPECT_GT(live.size(), 0u);
  const auto records = concat(concat(archived, delta), live);
  EXPECT_EQ(server->execute_line("best"), reference_best(records));
  for (const std::size_t k : {1u, 3u, 1000u}) {
    EXPECT_EQ(server->execute_line("topk " + std::to_string(k)),
              reference_topk(records, k));
  }
  for (const auto metric :
       {explore::CostMetric::kCoreArea, explore::CostMetric::kCoreCount}) {
    EXPECT_EQ(server->execute_line(metric == explore::CostMetric::kCoreArea
                                       ? "pareto area"
                                       : "pareto cores"),
              reference_pareto(records, metric));
  }
}

}  // namespace
}  // namespace mergescale::serve
