#pragma once
// Apriori frequent-itemset mining with privatized count reductions.
//
// The paper's related work ([9], Jin/Yang/Agrawal) establishes that
// partial-write reductions like the kmeans merging phase are "common
// across many categories of data mining applications"; association-rule
// mining is their canonical second example.  This workload exercises the
// same phase structure as the clustering apps with one twist: the
// merging-phase width (number of candidate itemsets) *changes per level*,
// so the reduction fraction is level-dependent rather than fixed.
//
//   parallel   each thread counts candidate-itemset support over its
//              block of transactions into a privatized count table;
//   merging    per-thread count tables are reduced (width = number of
//              candidates at this level — grows with the itemset level);
//   serial     pruning by minimum support and candidate generation for
//              the next level (constant in the thread count).
//
// Kernels are Executor templates like the other workloads.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/phase_ledger.hpp"
#include "runtime/reduction.hpp"
#include "workloads/workload_types.hpp"

namespace mergescale::workloads {

/// A transaction database: `items` holds all transactions' item ids
/// back to back (each transaction sorted ascending), `offsets[i]` the
/// start of transaction i (offsets.size() == transactions + 1).
struct TransactionSet {
  std::vector<std::int32_t> items;
  std::vector<std::uint32_t> offsets;

  std::size_t transactions() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const std::int32_t> transaction(std::size_t i) const {
    return {items.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Synthetic transaction generator: `n` transactions over `universe`
/// items with mean length `avg_len`; a handful of planted frequent
/// patterns appear in a fixed fraction of transactions so the mining has
/// non-trivial output.  Deterministic in `seed`.
TransactionSet synthetic_transactions(std::size_t n, int universe,
                                      int avg_len, std::uint64_t seed);

/// Configuration of the miner.
struct AprioriConfig {
  double min_support = 0.02;  ///< fraction of transactions
  int max_level = 3;          ///< largest itemset size mined
  runtime::ReductionStrategy strategy =
      runtime::ReductionStrategy::kSerial;
};

/// A frequent itemset with its absolute support count.
struct FrequentItemset {
  std::vector<std::int32_t> items;  ///< sorted ascending
  std::uint64_t support = 0;
};

/// Mining result: frequent itemsets per level (index 0 = 1-itemsets).
struct AprioriResult {
  std::vector<std::vector<FrequentItemset>> levels;

  /// Total frequent itemsets across levels.
  std::size_t total() const noexcept {
    std::size_t sum = 0;
    for (const auto& level : levels) sum += level.size();
    return sum;
  }
};

/// Support counting for transactions [lo, hi): for each candidate
/// (a row of `k` items in `candidates`), increment this thread's
/// privatized counter when the candidate is a subset of the transaction.
template <Executor E>
void apriori_count_block(E& ex, const TransactionSet& data,
                         std::span<const std::int32_t> candidates, int k,
                         std::size_t lo, std::size_t hi,
                         std::span<std::uint64_t> partial_counts) {
  const std::size_t n_candidates = partial_counts.size();
  for (std::size_t t = lo; t < hi; ++t) {
    const auto txn = data.transaction(t);
    for (const std::int32_t& item : txn) ex.load(&item);
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::int32_t* cand = candidates.data() + c * k;
      // Two-pointer subset check: both sides sorted ascending.
      std::size_t ti = 0;
      int matched = 0;
      for (int ci = 0; ci < k; ++ci) {
        ex.load(&cand[ci]);
        while (ti < txn.size() && txn[ti] < cand[ci]) {
          ++ti;
          ex.compute(1);
        }
        if (ti == txn.size() || txn[ti] != cand[ci]) break;
        ++matched;
        ++ti;
        ex.compute(1);
      }
      if (matched == k) {
        ex.load(&partial_counts[c]);
        ++partial_counts[c];
        ex.store(&partial_counts[c]);
      }
      ex.compute(1);
    }
  }
}

/// Serial phase: prunes candidates by minimum support and emits the
/// surviving itemsets.  `counts` is the merged global count table.
template <Executor E>
std::vector<FrequentItemset> apriori_prune(
    E& ex, std::span<const std::int32_t> candidates, int k,
    std::span<const std::uint64_t> counts, std::uint64_t min_count) {
  std::vector<FrequentItemset> frequent;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    ex.load(&counts[c]);
    ex.compute(1);
    if (counts[c] < min_count) continue;
    FrequentItemset itemset;
    itemset.support = counts[c];
    itemset.items.assign(candidates.begin() + c * k,
                         candidates.begin() + (c + 1) * k);
    for (int i = 0; i < k; ++i) ex.load(&candidates[c * k + i]);
    frequent.push_back(std::move(itemset));
  }
  return frequent;
}

/// Serial phase: classic apriori join+prune — builds (k+1)-candidates
/// from frequent k-itemsets sharing their first k−1 items, keeping only
/// candidates all of whose k-subsets are frequent.  Returns a flattened
/// row-major candidate table.
template <Executor E>
std::vector<std::int32_t> apriori_generate(
    E& ex, const std::vector<FrequentItemset>& frequent, int k) {
  // Sorted view of the frequent k-itemsets for join + subset pruning.
  std::vector<std::vector<std::int32_t>> sets;
  sets.reserve(frequent.size());
  for (const FrequentItemset& f : frequent) sets.push_back(f.items);
  std::sort(sets.begin(), sets.end());
  auto is_frequent = [&](const std::vector<std::int32_t>& itemset) {
    return std::binary_search(sets.begin(), sets.end(), itemset);
  };

  std::vector<std::int32_t> candidates;
  std::vector<std::int32_t> scratch(static_cast<std::size_t>(k) + 1);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      // Join condition: identical first k−1 items (lexicographic order
      // guarantees joinable partners are adjacent runs).
      bool joinable = true;
      for (int p = 0; p + 1 < k; ++p) {
        ex.compute(1);
        if (sets[i][static_cast<std::size_t>(p)] !=
            sets[j][static_cast<std::size_t>(p)]) {
          joinable = false;
          break;
        }
      }
      if (!joinable) break;  // sorted: no later j can match either

      std::copy(sets[i].begin(), sets[i].end(), scratch.begin());
      scratch[static_cast<std::size_t>(k)] = sets[j].back();
      ex.compute(static_cast<std::uint64_t>(k) + 1);

      // Downward-closure prune: every k-subset must be frequent.
      bool all_frequent = true;
      std::vector<std::int32_t> subset(static_cast<std::size_t>(k));
      for (int drop = 0; drop <= k && all_frequent; ++drop) {
        std::size_t w = 0;
        for (int p = 0; p <= k; ++p) {
          if (p == drop) continue;
          subset[w++] = scratch[static_cast<std::size_t>(p)];
        }
        ex.compute(static_cast<std::uint64_t>(k));
        if (!is_frequent(subset)) all_frequent = false;
      }
      if (all_frequent) {
        candidates.insert(candidates.end(), scratch.begin(), scratch.end());
        ex.compute(static_cast<std::uint64_t>(k) + 1);
      }
    }
  }
  return candidates;
}

/// Runs apriori natively on a `threads`-wide team; phases are accumulated
/// into `ledger` like the clustering drivers.
AprioriResult run_apriori_native(const TransactionSet& data,
                                 const AprioriConfig& config, int threads,
                                 runtime::PhaseLedger& ledger);

}  // namespace mergescale::workloads
