// reduction_planner: model-guided merging-phase implementation choice.
//
// Given a team size and reduction width (e.g. kmeans' D*C elements), the
// planner prints the predicted critical-path cost of the three merging
// strategies and the advisor's pick, then — with --measure — validates
// the prediction by timing all three on the actual thread runtime.
//
//   ./build/examples/reduction_planner --threads 8 --width 72
//   ./build/examples/reduction_planner --threads 8 --width 65536 --measure

#include <chrono>
#include <iostream>

#include "runtime/reduction.hpp"
#include "runtime/strategy_advisor.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mergescale;
using runtime::ReductionStrategy;

namespace {

double measure_seconds(ReductionStrategy strategy, int threads,
                       std::size_t width, int repeats) {
  runtime::ThreadTeam team(threads);
  runtime::PartialBuffers<double> buffers(threads, width);
  for (int t = 0; t < threads; ++t) {
    auto row = buffers.partial(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<double>(t + i);
    }
  }
  std::vector<double> dest(width);
  const auto schedule = runtime::merge_schedule(strategy, threads, width);
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    std::fill(dest.begin(), dest.end(), 0.0);
    runtime::reduce(schedule, team, std::span<double>(dest), buffers);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() /
         repeats;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("reduction_planner",
                "choose a merging-phase implementation from the model");
  cli.opt("threads", static_cast<long long>(8), "team size");
  cli.opt("width", static_cast<long long>(72),
          "reduction elements (kmeans default: D*C = 9*8)");
  cli.flag("measure", "also time the three strategies on real threads");
  if (!cli.parse(argc, argv)) return 0;

  const int threads = static_cast<int>(cli.get_int("threads"));
  const auto width = static_cast<std::size_t>(cli.get_int("width"));
  const runtime::StrategyCostModel costs;

  util::Table table({"strategy", "predicted cost", "advised"});
  const ReductionStrategy advised =
      runtime::advise_strategy(threads, width, costs);
  for (ReductionStrategy s :
       {ReductionStrategy::kSerial, ReductionStrategy::kTree,
        ReductionStrategy::kPrivatized}) {
    table.new_row()
        .cell(runtime::reduction_strategy_name(s))
        .num(runtime::predicted_cost(s, threads, width, costs), 1)
        .cell(s == advised ? "<==" : "");
  }
  table.print(std::cout, "model prediction (threads=" +
                             std::to_string(threads) + ", width=" +
                             std::to_string(width) + ")");

  if (cli.get_flag("measure")) {
    util::Table measured({"strategy", "seconds/reduce"});
    for (ReductionStrategy s :
         {ReductionStrategy::kSerial, ReductionStrategy::kTree,
          ReductionStrategy::kPrivatized}) {
      measured.new_row()
          .cell(runtime::reduction_strategy_name(s))
          .num(measure_seconds(s, threads, width, 50), 8);
    }
    measured.print(std::cout,
                   "measured on this host (oversubscription distorts "
                   "results when threads exceed hardware cores)");
  }
  return 0;
}
