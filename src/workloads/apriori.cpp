#include "workloads/apriori.hpp"

#include <algorithm>

#include "runtime/thread_team.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/phases.hpp"
#include "workloads/sim_adapter.hpp"

namespace mergescale::workloads {

TransactionSet synthetic_transactions(std::size_t n, int universe,
                                      int avg_len, std::uint64_t seed) {
  MS_CHECK(n >= 1, "need at least one transaction");
  MS_CHECK(universe >= 8, "universe must hold at least 8 items");
  MS_CHECK(avg_len >= 2 && avg_len <= universe,
           "average length must lie in [2, universe]");
  util::Xoshiro256 rng(seed);

  // Planted patterns: a few itemsets appearing in fixed shares of
  // transactions, so levels 2 and 3 are non-empty at sensible supports.
  const std::int32_t p0[] = {0, 1};
  const std::int32_t p1[] = {2, 3, 4};
  const std::int32_t p2[] = {1, 5};

  TransactionSet data;
  data.offsets.reserve(n + 1);
  data.offsets.push_back(0);
  std::vector<std::int32_t> txn;
  for (std::size_t i = 0; i < n; ++i) {
    txn.clear();
    if (rng.uniform() < 0.30) txn.insert(txn.end(), std::begin(p0), std::end(p0));
    if (rng.uniform() < 0.15) txn.insert(txn.end(), std::begin(p1), std::end(p1));
    if (rng.uniform() < 0.20) txn.insert(txn.end(), std::begin(p2), std::end(p2));
    // Random filler items (geometric-ish length around avg_len).
    const int filler = 1 + static_cast<int>(rng.bounded(
                               static_cast<std::uint64_t>(2 * avg_len - 1)));
    for (int f = 0; f < filler; ++f) {
      txn.push_back(static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(universe))));
    }
    std::sort(txn.begin(), txn.end());
    txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
    data.items.insert(data.items.end(), txn.begin(), txn.end());
    data.offsets.push_back(static_cast<std::uint32_t>(data.items.size()));
  }
  return data;
}

namespace {

/// The apriori phase sequence, written once for both backends
/// (phases.hpp).
template <typename P>
AprioriResult apriori_phases(P& phases, const TransactionSet& data,
                             const AprioriConfig& config) {
  MS_CHECK(config.min_support > 0.0 && config.min_support <= 1.0,
           "min_support must lie in (0, 1]");
  MS_CHECK(config.max_level >= 1, "max_level must be positive");
  const std::size_t n = data.transactions();
  const auto min_count = static_cast<std::uint64_t>(
      config.min_support * static_cast<double>(n));
  const int threads = phases.threads();

  AprioriResult result;

  // Level-1 candidates: every item in the universe that occurs.
  std::vector<std::int32_t> candidates = phases.init(data.items.size(), [&] {
    std::int32_t max_item = 0;
    for (std::int32_t item : data.items) max_item = std::max(max_item, item);
    std::vector<std::int32_t> items;
    for (std::int32_t item = 0; item <= max_item; ++item) {
      items.push_back(item);
    }
    return items;
  });

  // Every buffer the kernels trace, at canonical simulated addresses.
  // Each level allocates its own, so the map drops the regions of the
  // levels before it when the heap reuses their ranges.
  phases.place(std::span(data.items));
  int k = 1;
  while (!candidates.empty() && k <= config.max_level) {
    const std::size_t width = candidates.size() / static_cast<std::size_t>(k);
    runtime::PartialBuffers<std::uint64_t> partials(threads, width);
    std::vector<std::uint64_t> counts(width, 0);
    phases.place(std::span(candidates));
    phases.place(partials);
    phases.place(std::span(counts));

    // --- parallel phase: privatized support counting ---
    phases.parallel([&](auto& ex, int tid, int team_size) {
      auto [lo, hi] = runtime::ThreadTeam::partition(0, n, tid, team_size);
      apriori_count_block(ex, data, candidates, k, lo, hi,
                          partials.partial(tid));
    });

    // --- merging phase: reduce per-thread count tables ---
    phases.merge(config.strategy, partials, std::span<std::uint64_t>(counts));

    // --- serial phase: prune + generate next level ---
    phases.serial(runtime::Phase::kSerial, [&](auto& ex) {
      std::vector<FrequentItemset> frequent = apriori_prune(
          ex, std::span<const std::int32_t>(candidates), k,
          std::span<const std::uint64_t>(counts), min_count);
      candidates = k < config.max_level
                       ? apriori_generate(ex, frequent, k)
                       : std::vector<std::int32_t>{};
      result.levels.push_back(std::move(frequent));
    });
    ++k;
  }
  return result;
}

}  // namespace

AprioriResult run_apriori_native(const TransactionSet& data,
                                 const AprioriConfig& config, int threads,
                                 runtime::PhaseLedger& ledger) {
  NativePhases phases(threads, ledger);
  return apriori_phases(phases, data, config);
}

SimPhases simulate_apriori(const TransactionSet& data,
                           const AprioriConfig& config, sim::Machine& machine,
                           AprioriResult* result_out) {
  SimulatedPhases phases(machine);
  AprioriResult result = apriori_phases(phases, data, config);
  if (result_out != nullptr) *result_out = std::move(result);
  return phases.phases();
}

}  // namespace mergescale::workloads
