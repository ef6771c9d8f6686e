#include "explore/report.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string_view>

#include "runtime/ordered_blocks.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace mergescale::explore {

namespace {

/// ParetoReduction's slot hash of a cost; -0.0 hashes as 0.0, which it
/// equals.
std::size_t cost_hash(double cost) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(cost == 0.0 ? 0.0 : cost);
  bits ^= bits >> 33;
  bits *= 0xff51afd7ed558ccdull;
  bits ^= bits >> 33;
  return static_cast<std::size_t>(bits);
}

}  // namespace

TopK::TopK(std::size_t k, std::size_t offers) : k_(k) {
  heap_.reserve(std::min(k, offers));
}

// mslint: hot-path — once per feasible result in summarize's shares.
void TopK::offer(const RankKey& key) {
  if (heap_.size() < k_) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), ranks_before);
  } else if (k_ > 0 && ranks_before(key, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), ranks_before);
    heap_.back() = key;
    std::push_heap(heap_.begin(), heap_.end(), ranks_before);
  }
}
// mslint: cold

void TopK::merge(const TopK& later) {
  for (const RankKey& key : later.heap_) offer(key);
}

std::vector<std::size_t> TopK::ids() const {
  std::vector<RankKey> sorted = heap_;
  std::sort_heap(sorted.begin(), sorted.end(), ranks_before);
  std::vector<std::size_t> ids(sorted.size());
  std::ranges::transform(sorted, ids.begin(), &RankKey::id);
  return ids;
}

const RankKey* TopK::cutoff() const noexcept {
  return k_ > 0 && heap_.size() == k_ ? &heap_.front() : nullptr;
}

const EvalResult* best_result(
    const std::vector<EvalResult>& results) noexcept {
  std::size_t best = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].feasible) continue;
    if (best == results.size() ||
        ranks_before(rank_key(results[i], i), rank_key(results[best], best))) {
      best = i;
    }
  }
  return best == results.size() ? nullptr : &results[best];
}

std::string best_line(const EvalResult& best) {
  std::ostringstream os;
  os << "best: " << core::model_variant_name(best.variant) << " n=" << best.n
     << " app=" << best.app << " growth=" << best.growth << " r=" << best.r
     << " rl=" << best.rl << " speedup "
     << util::format_double(best.speedup, 2);
  return os.str();
}

std::vector<EvalResult> top_k(const std::vector<EvalResult>& results,
                              std::size_t k) {
  TopK selection(k, results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].feasible) selection.offer(rank_key(results[i], i));
  }
  std::vector<EvalResult> top;
  for (const std::size_t i : selection.ids()) top.push_back(results[i]);
  return top;
}

void ParetoReduction::offer(double cost, const RankKey& key) {
  if (std::isnan(cost)) return;
  if (2 * (winners_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = cost_hash(cost) & mask;; at = (at + 1) & mask) {
    const std::uint32_t slot = slots_[at];
    if (slot == 0) {
      slots_[at] = static_cast<std::uint32_t>(winners_.size() + 1);
      winners_.push_back({cost, key});
      return;
    }
    Winner& winner = winners_[slot - 1];
    if (winner.cost == cost) {
      if (ranks_before(key, winner.key)) winner.key = key;
      return;
    }
  }
}

void ParetoReduction::grow() {
  slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < winners_.size(); ++i) {
    std::size_t at = cost_hash(winners_[i].cost) & mask;
    while (slots_[at] != 0) at = (at + 1) & mask;
    slots_[at] = static_cast<std::uint32_t>(i + 1);
  }
}

void ParetoReduction::merge(const ParetoReduction& later) {
  for (const Winner& winner : later.winners_) {
    offer(winner.cost, winner.key);
  }
}

std::vector<std::size_t> ParetoReduction::frontier() const {
  std::vector<const Winner*> by_cost;
  by_cost.reserve(winners_.size());
  for (const Winner& winner : winners_) by_cost.push_back(&winner);
  // Costs are distinct and never NaN, so this order is total.
  std::sort(by_cost.begin(), by_cost.end(),
            [](const Winner* a, const Winner* b) { return a->cost < b->cost; });
  std::vector<std::size_t> ids;
  const Winner* last = nullptr;  // the last winner kept
  for (const Winner* winner : by_cost) {
    if (last == nullptr || winner->key.speedup > last->key.speedup) {
      ids.push_back(winner->key.id);
      last = winner;
    }
  }
  return ids;
}

std::vector<EvalResult> pareto_frontier(const std::vector<EvalResult>& results,
                                        CostMetric metric) {
  ParetoReduction reduction;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EvalResult& result = results[i];
    if (result.feasible) {
      reduction.offer(cost_of(result, metric), rank_key(result, i));
    }
  }
  std::vector<EvalResult> frontier;
  for (const std::size_t i : reduction.frontier()) {
    frontier.push_back(results[i]);
  }
  return frontier;
}

Summary summarize(const std::vector<EvalResult>& results, std::size_t k,
                  CostMetric metric, runtime::ThreadTeam* team) {
  /// One worker's reduction of its share, on its own cache lines.
  struct alignas(64) Share {
    TopK top{0};
    ParetoReduction pareto;
  };
  // One selection serves the best and the top k.
  const std::size_t keep = std::max<std::size_t>(k, 1);
  runtime::ThreadTeam solo(1);
  runtime::ThreadTeam& workers = team != nullptr ? *team : solo;
  std::vector<Share> shares(static_cast<std::size_t>(workers.size()));
  workers.run([&](int tid, int team_size) {
    const auto [begin, end] =
        runtime::ThreadTeam::partition(0, results.size(), tid, team_size);
    Share& share = shares[static_cast<std::size_t>(tid)];
    share.top = TopK(keep, end - begin);
    // mslint: hot-path — once per result.
    for (std::size_t i = begin; i < end; ++i) {
      const EvalResult& result = results[i];
      if (!result.feasible) continue;
      const RankKey key = rank_key(result, i);
      share.top.offer(key);
      share.pareto.offer(cost_of(result, metric), key);
    }
    // mslint: cold
  });
  TopK top(keep);
  ParetoReduction pareto;
  for (const Share& share : shares) {
    top.merge(share.top);
    pareto.merge(share.pareto);
  }
  Summary summary;
  const std::vector<std::size_t> ids = top.ids();
  if (!ids.empty()) summary.best = &results[ids.front()];
  for (std::size_t i = 0; i < std::min(k, ids.size()); ++i) {
    summary.top.push_back(results[ids[i]]);
  }
  for (const std::size_t id : pareto.frontier()) {
    summary.frontier.push_back(results[id]);
  }
  return summary;
}

double hypervolume_ref_cost(const ScenarioSpec& spec) {
  MS_CHECK(!spec.chip_budgets.empty(),
           "hypervolume reference needs at least one chip budget");
  return *std::max_element(spec.chip_budgets.begin(),
                           spec.chip_budgets.end()) +
         1.0;
}

namespace {

/// The hypervolume slab of each member of `clean`, a pareto_frontier
/// (sorted, speedup strictly increasing with cost, so slabs never
/// overlap), against `ref_cost`: member i dominates the cost slice
/// [cost_i, cost_{i+1}) up to its own speedup — later (costlier) members
/// only ever dominate more speedup — and a member at or beyond
/// `ref_cost` dominates nothing.
std::vector<double> slab_areas(const std::vector<EvalResult>& clean,
                               CostMetric metric, double ref_cost) {
  std::vector<double> areas(clean.size(), 0.0);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const double cost = cost_of(clean[i], metric);
    if (cost >= ref_cost) break;
    const double next = i + 1 < clean.size()
                            ? std::min(cost_of(clean[i + 1], metric), ref_cost)
                            : ref_cost;
    areas[i] = (next - cost) * clean[i].speedup;
  }
  return areas;
}

}  // namespace

double hypervolume(const std::vector<EvalResult>& frontier, CostMetric metric,
                   double ref_cost) {
  const std::vector<double> areas =
      slab_areas(pareto_frontier(frontier, metric), metric, ref_cost);
  return std::accumulate(areas.begin(), areas.end(), 0.0);
}

util::Table archive_summary(const std::vector<EvalResult>& archive,
                            CostMetric metric, double ref_cost) {
  const std::vector<EvalResult> clean = pareto_frontier(archive, metric);
  const std::vector<double> areas = slab_areas(clean, metric, ref_cost);
  util::Table table({"cost", "speedup", "hv share", "variant", "n", "app",
                     "growth", "topology", "r", "rl"});
  for (std::size_t i = 0; i < clean.size(); ++i) {
    table.new_row()
        .cell(util::format_general(cost_of(clean[i], metric), 9))
        .num(clean[i].speedup, 3)
        .num(areas[i], 3)
        .cell(std::string(core::model_variant_name(clean[i].variant)))
        .cell(util::format_general(clean[i].n, 9))
        .cell(clean[i].app)
        .cell(clean[i].growth)
        .cell(clean[i].topology)
        .cell(util::format_general(clean[i].r, 9))
        .cell(util::format_general(clean[i].rl, 9));
  }
  return table;
}

util::Table to_table(const std::vector<EvalResult>& results) {
  util::Table table({"scenario", "variant", "n", "app", "growth", "topology",
                     "r", "rl", "cores", "feasible", "speedup", "cached"});
  for (const auto& result : results) {
    table.new_row()
        .cell(result.scenario)
        .cell(std::string(core::model_variant_name(result.variant)))
        .cell(util::format_general(result.n, 9))
        .cell(result.app)
        .cell(result.growth)
        .cell(result.topology)
        .cell(util::format_general(result.r, 9))
        .cell(util::format_general(result.rl, 9))
        .cell(util::format_general(result.cores, 9))
        .cell(result.feasible ? "yes" : "no")
        .num(result.speedup, 3)
        .cell(result.from_cache ? "yes" : "no");
  }
  return table;
}

std::string top_k_text(const std::vector<EvalResult>& top) {
  return to_table(top).to_text("top-k designs by speedup");
}

std::string pareto_text(const std::vector<EvalResult>& frontier,
                        CostMetric metric) {
  return to_table(frontier).to_text("Pareto frontier (speedup vs. " +
                                    std::string(cost_metric_label(metric)) +
                                    ")");
}

util::Table strategy_comparison(
    const StrategySummary& baseline,
    const std::vector<StrategySummary>& strategies) {
  util::Table table({"strategy", "evals", "evals%", "best speedup", "gap%",
                     "evals to 1%"});
  auto row = [&](const StrategySummary& summary) {
    const double eval_share =
        baseline.evaluations == 0
            ? 0.0
            : 100.0 * static_cast<double>(summary.evaluations) /
                  static_cast<double>(baseline.evaluations);
    const double gap =
        baseline.best_speedup == 0.0
            ? 0.0
            : 100.0 * (baseline.best_speedup - summary.best_speedup) /
                  baseline.best_speedup;
    table.new_row()
        .cell(summary.strategy)
        .num(static_cast<long long>(summary.evaluations))
        .num(eval_share, 1)
        .num(summary.best_speedup, 3)
        .num(gap, 2)
        .cell(summary.converged ? std::to_string(summary.to_within_1pct)
                                : "-");
  };
  row(baseline);
  for (const auto& summary : strategies) row(summary);
  return table;
}

// The report writers.  A million-row sweep report costs about as much as
// writing its bytes: rows render straight into reused block buffers
// that are handed to the stream whole, with no per-row or per-cell
// strings, on as many workers as the caller's team holds.  report.hpp
// states the byte-level format they keep.

namespace {

/// Rows per rendered block, the archive's block size: about 1 MB of
/// NDJSON.
constexpr std::size_t kBlockRows = 4096;

/// One block of report text in a reused buffer that grows to fit (a
/// block of ordinary rows needs about 1 MB; a huge label grows it once).
/// Each writer sits on its own cache line: the write position moves on
/// every cell, and two workers' writers sharing a line would stall each
/// other.
class alignas(64) BlockWriter {
 public:
  void clear() { used_ = 0; }

  void write_to(std::ostream& os) const {
    os.write(buf_.data(), static_cast<std::streamsize>(used_));
  }

  // mslint: hot-path — everything down to the end of ndjson_row runs
  // once per report row or cell.
  void put(char c) {
    *room(1) = c;
    ++used_;
  }

  void put(std::string_view text) {
    std::memcpy(room(text.size()), text.data(), text.size());
    used_ += text.size();
  }

  /// printf("%.*g").
  void general(double value, int precision) {
    commit(util::put_general(room(util::kGeneralChars), value, precision));
  }

  /// printf("%.*f").
  void fixed(double value, int precision) {
    commit(util::put_fixed(room(util::fixed_chars(precision)), value,
                           precision));
  }

  /// printf("%.17g") — 17 significant digits round-trip any double — or
  /// `null` for a non-finite value, which has no JSON number form.
  void precise(double value) {
    if (std::isfinite(value)) {
      general(value, 17);
    } else {
      put("null");
    }
  }

  void integer(std::size_t value) {
    constexpr std::size_t kDigits = 20;  // SIZE_MAX in decimal
    char* out = room(kDigits);
    commit(std::to_chars(out, out + kDigits, value).ptr);
  }

  /// One CSV field, quoted when it holds a comma, quote or newline.
  void csv(std::string_view text) {
    util::csv_field(text, [this](std::string_view piece) { put(piece); });
  }

  /// A JSON string literal: quoted and escaped.
  void json(std::string_view text) {
    put('"');
    util::json_escaped(text, [this](std::string_view piece) { put(piece); });
    put('"');
  }

 private:
  /// `n` contiguous free bytes at the write position.
  char* room(std::size_t n) {
    if (buf_.size() - used_ < n) {
      buf_.resize(
          std::max({std::size_t{1} << 16, 2 * buf_.size(), used_ + n}));
    }
    return buf_.data() + used_;
  }

  void commit(const char* end) {
    used_ = static_cast<std::size_t>(end - buf_.data());
  }

  std::vector<char> buf_;
  std::size_t used_ = 0;
};

void csv_row(BlockWriter& out, const EvalResult& result) {
  out.csv(result.scenario);
  out.put(',');
  out.csv(core::model_variant_name(result.variant));
  out.put(',');
  out.general(result.n, 9);
  out.put(',');
  out.csv(result.app);
  out.put(',');
  out.csv(result.growth);
  out.put(',');
  out.csv(result.topology);
  out.put(',');
  out.general(result.r, 9);
  out.put(',');
  out.general(result.rl, 9);
  out.put(',');
  out.general(result.cores, 9);
  out.put(result.feasible ? ",yes," : ",no,");
  out.fixed(result.speedup, 3);
  out.put(result.from_cache ? ",yes\n" : ",no\n");
}

void ndjson_row(BlockWriter& out, const EvalResult& result) {
  out.put("{\"index\":");
  out.integer(result.index);
  out.put(",\"scenario\":");
  out.json(result.scenario);
  out.put(",\"variant\":\"");
  out.put(core::model_variant_name(result.variant));
  out.put("\",\"n\":");
  out.precise(result.n);
  out.put(",\"app\":");
  out.json(result.app);
  out.put(",\"growth\":");
  out.json(result.growth);
  out.put(",\"topology\":");
  out.json(result.topology);
  out.put(",\"r\":");
  out.precise(result.r);
  out.put(",\"rl\":");
  out.precise(result.rl);
  out.put(",\"cores\":");
  out.precise(result.cores);
  out.put(result.feasible ? ",\"feasible\":true" : ",\"feasible\":false");
  out.put(",\"speedup\":");
  out.precise(result.speedup);
  out.put(result.from_cache ? ",\"cached\":true}\n" : ",\"cached\":false}\n");
}
// mslint: cold

/// The one ordered block renderer behind both writers, one parallel
/// region per report (runtime::run_ordered_blocks).  The team renders
/// blocks of kBlockRows rows in row order into a ring of 2 × team.size()
/// reused buffers while the caller writes the rendered blocks to `os`
/// in block order: memory stays at about 2 MB per worker, and the bytes
/// are those of one sequential loop for any team size — a team of one
/// is that loop.  `row` is a lambda, not a function pointer, so the
/// renderer inlines into the block loop (a pointer call cost the CSV
/// writer about 10% of its rows/s).
template <typename Row>
void write_blocks(std::ostream& os, const std::vector<EvalResult>& results,
                  runtime::ThreadTeam* team, Row row) {
  runtime::ThreadTeam solo(1);
  runtime::ThreadTeam& workers = team != nullptr ? *team : solo;
  std::vector<BlockWriter> ring(2 * static_cast<std::size_t>(workers.size()));
  runtime::run_ordered_blocks(
      workers, (results.size() + kBlockRows - 1) / kBlockRows, ring,
      [&](BlockWriter& out, std::size_t block, int /*tid*/) {
        out.clear();
        const std::size_t end =
            std::min(results.size(), (block + 1) * kBlockRows);
        for (std::size_t i = block * kBlockRows; i < end; ++i) {
          row(out, results[i]);
        }
      },
      [&](const BlockWriter& out, std::size_t /*block*/) { out.write_to(os); });
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<EvalResult>& results,
               runtime::ThreadTeam* team) {
  os << "scenario,variant,n,app,growth,topology,r,rl,cores,feasible,"
        "speedup,cached\n";
  write_blocks(os, results, team,
               [](BlockWriter& out, const EvalResult& result) {
                 csv_row(out, result);
               });
}

void write_ndjson(std::ostream& os, const std::vector<EvalResult>& results,
                  runtime::ThreadTeam* team) {
  write_blocks(os, results, team,
               [](BlockWriter& out, const EvalResult& result) {
                 ndjson_row(out, result);
               });
}

}  // namespace mergescale::explore
