// Ablation microbenchmark (google-benchmark): throughput of the three
// merging-phase implementations — serial (paper Algorithm 1), tree
// (logarithmic) and privatized-parallel — across team sizes and reduction
// widths.  This is the design choice the analytical model's growth
// functions abstract: serial merging time grows with the team size,
// tree grows logarithmically, privatized stays flat (at the cost of
// all-to-all communication, modelled separately).

#include <benchmark/benchmark.h>

#include "runtime/reduction.hpp"

namespace {

using mergescale::runtime::PartialBuffers;
using mergescale::runtime::ReductionStrategy;
using mergescale::runtime::ThreadTeam;

void fill(PartialBuffers<double>& buffers) {
  for (int t = 0; t < buffers.threads(); ++t) {
    auto row = buffers.partial(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<double>(t + i);
    }
  }
}

void run_strategy(benchmark::State& state, ReductionStrategy strategy) {
  const int threads = static_cast<int>(state.range(0));
  const std::size_t width = static_cast<std::size_t>(state.range(1));
  ThreadTeam team(threads);
  PartialBuffers<double> buffers(threads, width);
  fill(buffers);
  std::vector<double> dest(width, 0.0);
  // Planned once, outside the timing, as a workload's merging phase does.
  const auto schedule =
      mergescale::runtime::merge_schedule(strategy, threads, width);
  for (auto _ : state) {
    std::fill(dest.begin(), dest.end(), 0.0);
    mergescale::runtime::reduce(schedule, team, std::span<double>(dest),
                                buffers);
    benchmark::DoNotOptimize(dest.data());
    benchmark::ClobberMemory();
    // Tree reduction destroys the partials; refill outside the timing of
    // correctness but inside the loop to keep iterations comparable.
    if (strategy == ReductionStrategy::kTree) {
      state.PauseTiming();
      fill(buffers);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          threads * static_cast<std::int64_t>(width));
}

void BM_SerialReduce(benchmark::State& state) {
  run_strategy(state, ReductionStrategy::kSerial);
}
void BM_TreeReduce(benchmark::State& state) {
  run_strategy(state, ReductionStrategy::kTree);
}
void BM_PrivatizedReduce(benchmark::State& state) {
  run_strategy(state, ReductionStrategy::kPrivatized);
}

// Width 72 is the paper's kmeans merging phase (D*C = 9*8); 4096 models a
// large reduction.  Team sizes 1..8.
void apply_args(benchmark::internal::Benchmark* bench) {
  for (int threads : {1, 2, 4, 8}) {
    for (int width : {72, 512, 4096}) {
      bench->Args({threads, width});
    }
  }
}

BENCHMARK(BM_SerialReduce)->Apply(apply_args)->UseRealTime();
BENCHMARK(BM_TreeReduce)->Apply(apply_args)->UseRealTime();
BENCHMARK(BM_PrivatizedReduce)->Apply(apply_args)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
