#include "runtime/reduction.hpp"

namespace mergescale::runtime {

std::vector<MergeStep> merge_schedule(ReductionStrategy strategy, int threads,
                                      std::size_t width) {
  MS_CHECK(threads >= 1, "need at least one thread");
  const auto cores = static_cast<std::size_t>(threads);
  switch (strategy) {
    case ReductionStrategy::kSerial:
      return {{MergeWork{0, threads, MergeWork::kDest, 0, width}}};
    case ReductionStrategy::kTree: {
      std::vector<MergeStep> steps;
      for (int stride = 1; stride < threads; stride *= 2) {
        MergeStep& step = steps.emplace_back(cores);
        for (int tid = 0; tid + stride < threads; tid += 2 * stride) {
          step[static_cast<std::size_t>(tid)] =
              MergeWork{tid + stride, tid + stride + 1, tid, 0, width};
        }
      }
      steps.push_back({MergeWork{0, 1, MergeWork::kDest, 0, width}});
      return steps;
    }
    case ReductionStrategy::kPrivatized: {
      MergeStep step(cores);
      for (int tid = 0; tid < threads; ++tid) {
        const auto [lo, hi] = ThreadTeam::partition(0, width, tid, threads);
        step[static_cast<std::size_t>(tid)] = {0, threads, MergeWork::kDest,
                                               lo, hi};
      }
      return {step};
    }
  }
  MS_CHECK(false, "unknown reduction strategy");
  return {};
}

std::uint64_t critical_path(const std::vector<MergeStep>& schedule) {
  std::uint64_t ops = 0;
  for (const MergeStep& step : schedule) {
    std::uint64_t busiest = 0;
    for (const MergeWork& work : step) {
      busiest = std::max(busiest, work.merges());
    }
    ops += busiest;
  }
  return ops;
}

}  // namespace mergescale::runtime
