#include "search/strategy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "explore/report.hpp"
#include "runtime/ordered_blocks.hpp"
#include "search/design_key.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mergescale::search {

namespace {

/// Consecutive rounds allowed to propose nothing the run has not already
/// proposed before a strategy concludes the reachable space is
/// exhausted.  Without this a budget larger than the space would spin
/// forever on revisits.  Stalls are measured against *distinct
/// proposals of this run* — not the visited set — so replaying a resumed
/// trajectory through seeded points (zero fresh evaluations) registers
/// as progress rather than as a stall.
constexpr std::uint64_t kMaxStallRounds = 64;

/// Folds one entry into a 2-D frontier kept cost ascending with strictly
/// increasing speedup and one entry per cost value, the one that ranks
/// first — the incremental form of explore::pareto_frontier, which it
/// equals for any fold order.  Shared by the outcome archive
/// (EvalResult entries) and the kPareto parent pool (coordinate
/// entries); `cost_fn` and `key_fn` project an entry's cost and rank
/// key.  Keys carry equal ids, so on a full tie the earlier fold stays.
template <typename Entry, typename CostFn, typename KeyFn>
void fold_into_frontier(std::vector<Entry>& frontier, Entry entry,
                        CostFn cost_fn, KeyFn key_fn) {
  const double cost = cost_fn(entry);
  const explore::RankKey key = key_fn(entry);
  auto slot = std::lower_bound(
      frontier.begin(), frontier.end(), cost,
      [&](const Entry& member, double c) { return cost_fn(member) < c; });
  if (slot != frontier.end() && cost_fn(*slot) == cost) {
    if (!explore::ranks_before(key, key_fn(*slot))) return;
    *slot = std::move(entry);
  } else {
    if (slot != frontier.begin() &&
        key_fn(*std::prev(slot)).speedup >= key.speedup) {
      return;  // a cheaper entry is at least as fast
    }
    slot = frontier.insert(slot, std::move(entry));
  }
  // Drop costlier members the improved entry now dominates.
  const auto tail = std::next(slot);
  auto done = tail;
  while (done != frontier.end() && key_fn(*done).speedup <= key.speedup) {
    ++done;
  }
  frontier.erase(tail, done);
}

/// What a strategy learns from a proposal (out of bounds: infeasible).
struct Score {
  bool feasible = false;
  double speedup = 0.0;
  double cost = 0.0;  ///< explore::cost_of under SearchOptions::cost_metric
  std::size_t index = 0;  ///< the point's canonical flat index
};

/// Funnels candidate coordinates through the engine.  An in-bounds
/// proposal is named by its canonical flat index; the visited set maps
/// each index the run has charged (seeded or evaluated) to its score.
class Funnel {
 public:
  Funnel(explore::ExploreEngine& engine, const SearchSpace& space,
         RunLog* log, SearchOutcome* outcome, explore::CostMetric metric,
         std::span<const PriorPoint> prior)
      : engine_(engine),
        space_(space),
        log_(log),
        outcome_(outcome),
        metric_(metric),
        prior_(prior) {
    for (const PriorPoint& seed : prior) {
      visited_.try_emplace(seed.flat, Point{score_of(*seed.record), seed.record});
    }
  }

  /// Distinct design points charged against the budget.
  std::uint64_t evaluations() const { return visited_.size(); }

  /// Points the run may still charge.
  std::uint64_t remaining(std::uint64_t budget) const {
    return budget > evaluations() ? budget - evaluations() : 0;
  }

  /// Cuts `batch` to its longest prefix whose fresh proposals — distinct
  /// in-bounds indices not yet visited — fit the remaining budget; true
  /// when the cut dropped a proposal.  Every strategy builds its batch
  /// whole (a fixed RNG use), cuts it so, and when the cut bites spends
  /// the prefix and stops: `budget` is a hard cap, and an interrupted
  /// run's proposals are a prefix of an uninterrupted run's.  Visited
  /// and out-of-bounds coordinates are free, so the cut lands on the
  /// same element in a resumed run as in an uninterrupted one.
  bool cut_to_budget(std::vector<Coords>& batch, std::uint64_t budget) {
    std::uint64_t room = remaining(budget);
    std::size_t length = 0;
    planned_.clear();
    for (; length < batch.size(); ++length) {
      const std::optional<std::uint64_t> flat = flat_of(batch[length]);
      if (flat && !visited_.contains(*flat) && planned_.insert(*flat).second) {
        if (room == 0) break;  // this proposal would overflow
        --room;
      }
    }
    const bool cut = length < batch.size();
    batch.resize(length);
    return cut;
  }

  double best_speedup() const noexcept {
    return outcome_->found ? outcome_->best.speedup : 0.0;
  }

  /// Distinct in-bounds points this run has proposed: what stall
  /// detection watches, so a replayed (resumed) trajectory is progress.
  std::uint64_t distinct_proposed() const { return distinct_proposed_; }

  /// Scores one batch; score i belongs to batch[i].  Each index not yet
  /// visited is evaluated once and logged; a point is folded into the
  /// best and the archive when the run first proposes it.
  std::vector<Score> evaluate(const std::vector<Coords>& batch) {
    jobs_.clear();
    firsts_.clear();
    std::vector<Point*> slot(batch.size(), nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::optional<std::uint64_t> flat = flat_of(batch[i]);
      if (!flat) continue;  // out of bounds: not a proposal
      ++outcome_->proposals;
      const auto [it, inserted] = visited_.try_emplace(*flat);
      Point& point = *(slot[i] = &it->second);
      if (inserted) {
        explore::EvalJob& job = jobs_.emplace_back();
        space_.job_at(batch[i], &job);
        job.index = jobs_.size() - 1;
      }
      if (!point.proposed) {  // inserted just now, or seeded
        point.proposed = true;
        ++distinct_proposed_;
        firsts_.push_back({*flat, &point});
      }
    }

    // The jobs are the unseeded firsts, in order.
    std::vector<explore::EvalResult> evaluated = engine_.run(jobs_);
    auto result = evaluated.begin();
    for (const First& first : firsts_) {
      if (first.point->seed != nullptr) {
        fold(*first.point->seed);
        continue;
      }
      result->index = static_cast<std::size_t>(first.flat);
      if (log_ != nullptr) log_->append(*result);
      first.point->score = score_of(*result);
      fold(*result++);
    }
    std::vector<Score> scores(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (slot[i] != nullptr) scores[i] = slot[i]->score;
    }
    return scores;
  }

  void record_trace() {
    outcome_->evaluations = evaluations();
    outcome_->trace.push_back(TracePoint{evaluations(), best_speedup()});
  }

  /// Folds the prior points the run never proposed, in flat order.
  void fold_unproposed_prior() {
    for (const PriorPoint& seed : prior_) {
      if (!visited_.at(seed.flat).proposed) fold(*seed.record);
    }
  }

 private:
  struct Point {
    Score score;
    const explore::EvalResult* seed = nullptr;  ///< a prior point's record
    bool proposed = false;  ///< proposed by this run, not only seeded
  };
  /// A point the batch proposes first.
  struct First {
    std::uint64_t flat;
    Point* point;
  };

  /// The canonical flat index of `coords`; std::nullopt out of bounds.
  std::optional<std::uint64_t> flat_of(const Coords& coords) const {
    return space_.canonical(space_.encode(coords));
  }

  Score score_of(const explore::EvalResult& result) const {
    return Score{result.feasible, result.speedup,
                 explore::cost_of(result, metric_), result.index};
  }

  /// Folds one result into the incumbent best and the Pareto archive,
  /// under explore's rank order.  A run folds each design point once; on
  /// a full tie (equal ids) the earlier fold stays.
  void fold(const explore::EvalResult& result) {
    if (result.feasible &&
        (!outcome_->found ||
         explore::ranks_before(explore::rank_key(result, 0),
                               explore::rank_key(outcome_->best, 0)))) {
      outcome_->found = true;
      outcome_->best = result;
    }
    fold_archive(outcome_->archive, result, metric_);
  }

  explore::ExploreEngine& engine_;
  const SearchSpace& space_;
  RunLog* log_;
  SearchOutcome* outcome_;
  explore::CostMetric metric_;
  std::span<const PriorPoint> prior_;
  std::unordered_map<std::uint64_t, Point> visited_;
  std::uint64_t distinct_proposed_ = 0;
  // Per-batch scratch, kept for its capacity.
  std::unordered_set<std::uint64_t> planned_;
  std::vector<explore::EvalJob> jobs_;
  std::vector<First> firsts_;
};

Coords random_coords(const SearchSpace& space, util::Xoshiro256& rng) {
  Coords coords{};
  for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
    coords[dim] = static_cast<std::size_t>(rng.bounded(space.axis_size(dim)));
  }
  return coords;
}

double value_of(const Score& score) noexcept {
  return score.feasible ? score.speedup : 0.0;
}

/// Perturbs `coords[dim]`: mostly a ±1 step, occasionally (1 in 8) a
/// full-axis jump that escapes plateaus single steps cannot cross.  The
/// shared move kernel of anneal, genetic mutation, and pareto mutation.
void mutate_axis(const SearchSpace& space, util::Xoshiro256& rng,
                 std::size_t dim, Coords& coords) {
  const std::size_t axis = space.axis_size(dim);
  if (axis <= 1) return;
  if (rng.bounded(8) == 0) {
    coords[dim] = static_cast<std::size_t>(rng.bounded(axis));
  } else if (coords[dim] == 0) {
    coords[dim] = 1;
  } else if (coords[dim] + 1 >= axis) {
    --coords[dim];
  } else if (rng.bounded(2) == 0) {
    ++coords[dim];
  } else {
    --coords[dim];
  }
}

void random_search(Funnel& funnel, const SearchSpace& space,
                   const SearchOptions& options, util::Xoshiro256& rng) {
  const std::size_t batch_size = std::max<std::size_t>(1, options.batch);
  std::uint64_t stalls = 0;
  while (funnel.evaluations() < options.budget && stalls < kMaxStallRounds) {
    // Clamp the round to the remaining budget: proposals can only consume
    // at most one evaluation each, so the budget is never overshot.
    const std::size_t round = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_size, funnel.remaining(options.budget)));
    std::vector<Coords> batch;
    batch.reserve(round);
    for (std::size_t i = 0; i < round; ++i) {
      batch.push_back(random_coords(space, rng));
    }
    const std::uint64_t before = funnel.distinct_proposed();
    funnel.evaluate(batch);
    stalls = funnel.distinct_proposed() == before ? stalls + 1 : 0;
    funnel.record_trace();
  }
}

/// The ±1 coordinate neighborhood of `center` (up to 2 × kDims points).
std::vector<Coords> neighbors_of(const SearchSpace& space,
                                 const Coords& center) {
  std::vector<Coords> neighbors;
  neighbors.reserve(2 * SearchSpace::kDims);
  for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
    if (center[dim] > 0) {
      Coords down = center;
      --down[dim];
      neighbors.push_back(down);
    }
    if (center[dim] + 1 < space.axis_size(dim)) {
      Coords up = center;
      ++up[dim];
      neighbors.push_back(up);
    }
  }
  return neighbors;
}

void hill_climb(Funnel& funnel, const SearchSpace& space,
                const SearchOptions& options, util::Xoshiro256& rng,
                SearchOutcome* outcome) {
  std::uint64_t stalls = 0;
  while (funnel.evaluations() < options.budget && stalls < kMaxStallRounds) {
    const std::uint64_t climb_start = funnel.distinct_proposed();
    Coords current = random_coords(space, rng);
    double current_value = value_of(funnel.evaluate({current})[0]);
    ++outcome->restarts;
    for (;;) {
      if (funnel.evaluations() >= options.budget) break;
      std::vector<Coords> neighbors = neighbors_of(space, current);
      // A fair step needs the whole neighborhood: when it does not fit,
      // spend the prefix (it still updates the best) and stop.
      if (funnel.cut_to_budget(neighbors, options.budget)) {
        funnel.evaluate(neighbors);
        funnel.record_trace();
        return;
      }
      const std::vector<Score> results = funnel.evaluate(neighbors);
      std::size_t best_index = neighbors.size();
      double best_value = current_value;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (value_of(results[i]) > best_value) {
          best_value = value_of(results[i]);
          best_index = i;
        }
      }
      funnel.record_trace();
      if (best_index == neighbors.size()) break;  // local optimum
      current = neighbors[best_index];
      current_value = best_value;
    }
    funnel.record_trace();
    stalls = funnel.distinct_proposed() == climb_start ? stalls + 1 : 0;
  }
}

/// Rounds between best-state exchanges: every interval, the lagging
/// walker adopts the leading walker's state and reheats — interaction
/// that spreads a good basin across the population without collapsing
/// the chains onto one trajectory between exchanges.
constexpr std::uint64_t kExchangeInterval = 16;

/// Annealing schedule: a walker starts (and reheats) at kInitialTemp, a
/// fraction of the current best speedup, cools by kCooling per move and
/// restarts once at or below kMinTemp.
constexpr double kInitialTemp = 0.05;
constexpr double kCooling = 0.98;
constexpr double kMinTemp = 1e-4;
static_assert(kInitialTemp > 0.0 && kCooling > 0.0 && kCooling < 1.0 &&
                  kMinTemp > 0.0,
              "annealing schedule parameters out of range");

/// Parallel simulated annealing: `options.walkers` interacting chains,
/// each with its own RNG stream, temperature, and current state.  Every
/// round builds one candidate per walker and submits the whole front as
/// a single deduped batch, so the engine's thread team evaluates a
/// neighborhood's worth of moves per dispatch instead of idling between
/// the single moves of a sequential walker.
void anneal(Funnel& funnel, const SearchSpace& space,
            const SearchOptions& options, util::Xoshiro256& rng,
            SearchOutcome* outcome) {
  struct Walker {
    util::Xoshiro256 rng;
    Coords coords{};
    double value = 0.0;
    double temperature = 0.0;
    bool seeded = false;  ///< current state has been evaluated

    explicit Walker(std::uint64_t seed) : rng(seed) {}
  };
  const std::size_t walker_count = std::max<std::size_t>(1, options.walkers);
  std::vector<Walker> walkers;
  walkers.reserve(walker_count);
  for (std::size_t i = 0; i < walker_count; ++i) {
    // Independent streams derived from the master seed (SplitMix64-fed
    // xoshiro per walker) keep the chains decorrelated yet reproducible.
    walkers.emplace_back(rng.next());
  }

  std::uint64_t stalls = 0;
  std::uint64_t round = 0;
  while (funnel.evaluations() < options.budget && stalls < kMaxStallRounds) {
    // Build the whole front: a fresh random point for unseeded walkers
    // (start or post-restart), a one-axis mutation for the rest.
    std::vector<Coords> batch;
    batch.reserve(walker_count);
    for (Walker& walker : walkers) {
      if (!walker.seeded) {
        batch.push_back(random_coords(space, walker.rng));
      } else {
        Coords candidate = walker.coords;
        const auto dim = static_cast<std::size_t>(
            walker.rng.bounded(SearchSpace::kDims));
        mutate_axis(space, walker.rng, dim, candidate);
        batch.push_back(candidate);
      }
    }
    const bool starved = funnel.cut_to_budget(batch, options.budget);
    const std::uint64_t before = funnel.distinct_proposed();
    const std::vector<Score> results = funnel.evaluate(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Walker& walker = walkers[i];
      const double candidate_value = value_of(results[i]);
      if (!walker.seeded) {
        walker.coords = batch[i];
        walker.value = candidate_value;
        walker.temperature = kInitialTemp;
        walker.seeded = true;
        ++outcome->restarts;
        continue;
      }
      // Relative acceptance: deltas are normalized by the incumbent best
      // so kInitialTemp is a speedup *fraction*, independent of the
      // space's scale.
      const double scale = std::max(funnel.best_speedup(), 1.0);
      const double delta = (candidate_value - walker.value) / scale;
      if (delta >= 0.0 ||
          walker.rng.uniform() < std::exp(delta / walker.temperature)) {
        walker.coords = batch[i];
        walker.value = candidate_value;
      }
      walker.temperature *= kCooling;
      if (walker.temperature <= kMinTemp) walker.seeded = false;
    }
    funnel.record_trace();
    if (starved) return;

    // Periodic best-state exchange across the seeded chains.
    if (++round % kExchangeInterval == 0 && walker_count > 1) {
      std::size_t best = walker_count;
      std::size_t worst = walker_count;
      for (std::size_t i = 0; i < walker_count; ++i) {
        if (!walkers[i].seeded) continue;
        if (best == walker_count || walkers[i].value > walkers[best].value) {
          best = i;
        }
        if (worst == walker_count ||
            walkers[i].value < walkers[worst].value) {
          worst = i;
        }
      }
      if (best != walker_count && worst != best) {
        walkers[worst].coords = walkers[best].coords;
        walkers[worst].value = walkers[best].value;
        walkers[worst].temperature = kInitialTemp;  // reheat at the new basin
      }
    }
    if (funnel.distinct_proposed() == before) {
      ++stalls;
      // A round that proposed nothing new means the chains have gone
      // cold inside an exhausted neighborhood.  Reseed the coldest
      // walker instead of waiting out its full cooling schedule: the
      // random restart either finds fresh territory (which resets the
      // stall counter) or the space really is exhausted and the counter
      // runs out — the same two outcomes the sequential walker's
      // per-walk stall accounting had, at one round per probe instead
      // of one cooling cycle.
      std::size_t coldest = walker_count;
      for (std::size_t i = 0; i < walker_count; ++i) {
        if (!walkers[i].seeded) continue;
        if (coldest == walker_count ||
            walkers[i].temperature < walkers[coldest].temperature) {
          coldest = i;
        }
      }
      if (coldest != walker_count) walkers[coldest].seeded = false;
    } else {
      stalls = 0;
    }
  }
}

/// Genetic: the fittest individuals carried into the next generation
/// unchanged.
constexpr std::size_t kElite = 2;

/// Population-based genetic search.  Whole generations are submitted as
/// one deduped batch, so the engine's thread team stays saturated instead
/// of idling between single annealing moves.  Selection is a 3-way
/// tournament on fitness (feasible speedup), recombination is per-axis
/// uniform crossover over the mixed-radix grid, mutation perturbs an
/// expected one axis per child (±1 step with occasional full-axis
/// jumps), and the top kElite individuals carry over unchanged.
/// Elites were evaluated in the previous generation, so resubmitting
/// them costs revisits, not budget.  One child in four is a random
/// immigrant, which keeps the search ergodic: given enough budget the
/// strategy reaches every grid point instead of collapsing onto a
/// converged population.
void genetic(Funnel& funnel, const SearchSpace& space,
             const SearchOptions& options, util::Xoshiro256& rng) {
  const std::size_t pop = std::max<std::size_t>(2, options.population);
  const std::size_t elite = std::min<std::size_t>(kElite, pop - 1);

  std::vector<Coords> population;
  std::vector<double> fitness;
  auto install = [&](std::vector<Coords> batch) {
    const std::vector<Score> scores = funnel.evaluate(batch);
    population = std::move(batch);
    fitness.clear();
    fitness.reserve(scores.size());
    for (const Score& score : scores) fitness.push_back(value_of(score));
    funnel.record_trace();
  };

  // Seed generation: uniform random individuals.
  if (funnel.evaluations() >= options.budget) return;
  {
    std::vector<Coords> batch;
    batch.reserve(pop);
    for (std::size_t i = 0; i < pop; ++i) {
      batch.push_back(random_coords(space, rng));
    }
    const bool starved = funnel.cut_to_budget(batch, options.budget);
    if (!batch.empty()) install(std::move(batch));
    if (starved || population.empty()) return;
  }

  auto tournament = [&]() -> const Coords& {
    std::size_t best =
        static_cast<std::size_t>(rng.bounded(population.size()));
    for (int entrant = 0; entrant < 2; ++entrant) {
      const auto rival =
          static_cast<std::size_t>(rng.bounded(population.size()));
      if (fitness[rival] > fitness[best]) best = rival;
    }
    return population[best];
  };

  std::uint64_t stalls = 0;
  while (!population.empty() && funnel.evaluations() < options.budget &&
         stalls < kMaxStallRounds) {
    // Elitism: the `elite` fittest, ties toward the lower slot (ids are
    // slots; the index is unused).
    explore::TopK fittest(elite, population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      fittest.offer({fitness[i], 0, i});
    }
    std::vector<Coords> next;
    next.reserve(pop);
    for (const std::size_t i : fittest.ids()) next.push_back(population[i]);
    const std::size_t offspring = pop - next.size();
    for (std::size_t i = 0; i < offspring; ++i) {
      Coords child;
      if (rng.bounded(4) == 0) {
        child = random_coords(space, rng);  // immigrant
      } else {
        const Coords& a = tournament();
        const Coords& b = tournament();
        for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
          child[dim] = rng.bounded(2) == 0 ? a[dim] : b[dim];
        }
        for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
          if (rng.bounded(SearchSpace::kDims) == 0) {
            mutate_axis(space, rng, dim, child);
          }
        }
      }
      next.push_back(child);
    }
    // Elites come first: they are visited already and cost nothing.
    const bool starved = funnel.cut_to_budget(next, options.budget);
    const std::uint64_t before = funnel.distinct_proposed();
    if (!next.empty()) install(std::move(next));
    if (starved || population.empty()) return;
    stalls = funnel.distinct_proposed() == before ? stalls + 1 : 0;
  }
}

/// Archive-guided multi-objective search (speedup up, cost down).  Each
/// round submits one batch: half random immigrants (coverage of the cost
/// axis), half mutants of uniformly drawn archive members (refinement of
/// the frontier).  The parent pool mirrors SearchOutcome::archive but
/// keeps grid coordinates, which EvalResult does not carry.
void pareto_search(Funnel& funnel, const SearchSpace& space,
                   const SearchOptions& options, util::Xoshiro256& rng) {
  const std::size_t pop = std::max<std::size_t>(1, options.population);

  struct Member {
    Coords coords;
    double cost;
    explore::RankKey key;  ///< speedup and canonical flat index
  };
  std::vector<Member> pool;
  auto update_pool = [&](const Coords& coords, const Score& score) {
    if (!score.feasible) return;
    fold_into_frontier(
        pool, Member{coords, score.cost, {score.speedup, score.index, 0}},
        [](const Member& m) { return m.cost; },
        [](const Member& m) { return m.key; });
  };

  std::uint64_t stalls = 0;
  while (funnel.evaluations() < options.budget && stalls < kMaxStallRounds) {
    std::vector<Coords> batch;
    batch.reserve(pop);
    for (std::size_t i = 0; i < pop; ++i) {
      if (pool.empty() || rng.bounded(2) == 0) {
        batch.push_back(random_coords(space, rng));
      } else {
        Coords child =
            pool[static_cast<std::size_t>(rng.bounded(pool.size()))].coords;
        for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
          if (rng.bounded(SearchSpace::kDims) == 0) {
            mutate_axis(space, rng, dim, child);
          }
        }
        batch.push_back(child);
      }
    }
    const bool starved = funnel.cut_to_budget(batch, options.budget);
    const std::uint64_t before = funnel.distinct_proposed();
    const std::vector<Score> results = funnel.evaluate(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      update_pool(batch[i], results[i]);
    }
    funnel.record_trace();
    if (starved) return;
    stalls = funnel.distinct_proposed() == before ? stalls + 1 : 0;
  }
}

}  // namespace

void fold_archive(std::vector<explore::EvalResult>& archive,
                  const explore::EvalResult& result,
                  explore::CostMetric metric) {
  if (!result.feasible) return;
  fold_into_frontier(
      archive, result,
      [metric](const explore::EvalResult& r) {
        return explore::cost_of(r, metric);
      },
      [](const explore::EvalResult& r) { return explore::rank_key(r, 0); });
}

std::string_view strategy_name(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kRandom: return "random";
    case Strategy::kHillClimb: return "hill-climb";
    case Strategy::kAnneal: return "anneal";
    case Strategy::kGenetic: return "genetic";
    case Strategy::kPareto: return "pareto";
  }
  return "unknown";
}

Strategy parse_strategy(std::string_view name) {
  for (Strategy strategy :
       {Strategy::kRandom, Strategy::kHillClimb, Strategy::kAnneal,
        Strategy::kGenetic, Strategy::kPareto}) {
    if (name == strategy_name(strategy)) return strategy;
  }
  throw std::invalid_argument("unknown strategy: " + std::string(name));
}

std::optional<TracePoint> SearchOutcome::first_within(
    double target, double fraction) const noexcept {
  for (const TracePoint& point : trace) {
    if (point.best_speedup >= target * (1.0 - fraction)) return point;
  }
  return std::nullopt;
}

std::vector<PriorPoint> prior_points(
    const SearchSpace& space, std::span<const explore::EvalResult> records) {
  std::vector<PriorPoint> points;
  points.reserve(records.size());
  for (const explore::EvalResult& record : records) {
    if (const auto flat = space.index_of(DesignKey::of(record))) {
      points.push_back({*flat, &record});
    }
  }
  // Ties sort by record address, so each point keeps its first record.
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](const PriorPoint& a, const PriorPoint& b) {
                             return a.flat == b.flat;
                           }),
               points.end());
  return points;
}

namespace {

/// Jobs a sweep worker evaluates at once (ExploreEngine::evaluate_block):
/// the engine's largest claim block, a batch the SoA kernels fill.
constexpr std::size_t kSweepBatch = 256;

/// One slot of run_sweep's ring: a block's results in flat order, its
/// evaluated ones and its copied seeds, and the log frames of the
/// evaluated ones.  The vectors keep their capacity from block to block.
struct SweepBlock {
  std::vector<explore::EvalResult> results;  ///< the first `count` in use
  std::size_t count = 0;
  std::vector<char> frames;  ///< the first `fresh` records' frames
  std::size_t fresh = 0;
};

/// A sweep worker's reused job slots and each queued job's log labels.
struct SweepWorker {
  std::vector<explore::EvalJob> jobs =
      std::vector<explore::EvalJob>(kSweepBatch);
  std::vector<BinaryLog::RecordLabels> labels =
      std::vector<BinaryLog::RecordLabels>(kSweepBatch);
  std::size_t queued = 0;
};

/// The log's string-table ids of a space's axis labels, registered
/// before the sweep's first block, so a record's ids follow from its
/// coordinates the way job_at's labels do.
struct AxisLabels {
  std::uint32_t scenario = 0;
  std::vector<std::uint32_t> apps;
  std::vector<std::uint32_t> growths;
  std::vector<std::uint32_t> topologies;
  std::uint32_t no_topology = 0;  ///< "-": the variants without a NoC

  AxisLabels(const explore::ScenarioSpec& spec, RunLog& log)
      : scenario(log.label_id(spec.name)) {
    for (const core::AppParams& app : spec.apps) {
      apps.push_back(log.label_id(explore::label_of(app)));
    }
    for (const core::GrowthFunction& growth : spec.growths) {
      growths.push_back(log.label_id(explore::label_of(growth)));
    }
    for (const noc::Topology topology : spec.topologies) {
      topologies.push_back(log.label_id(explore::label_of(topology)));
    }
    no_topology = log.label_id("-");
  }

  BinaryLog::RecordLabels of(const explore::ScenarioSpec& spec,
                             const Coords& coords) const {
    return {scenario, apps[coords[1]], growths[coords[2]],
            core::is_comm_variant(spec.variants[coords[3]])
                ? topologies[coords[4]]
                : no_topology};
  }
};

}  // namespace

std::vector<explore::EvalResult> run_sweep(explore::ExploreEngine& engine,
                                           const SearchSpace& space,
                                           const ShardRange& range,
                                           RunLog* log,
                                           std::span<const PriorPoint> prior) {
  const explore::ScenarioSpec& spec = space.spec();
  std::optional<AxisLabels> labels;
  if (log != nullptr) labels.emplace(spec, *log);
  std::array<std::size_t, SearchSpace::kDims> radix{};
  for (std::size_t dim = 0; dim < SearchSpace::kDims; ++dim) {
    radix[dim] = space.axis_size(dim);
  }
  runtime::ThreadTeam& team = engine.team();
  std::vector<SweepWorker> workers(static_cast<std::size_t>(team.size()));
  std::vector<SweepBlock> ring(2 * workers.size());
  if (log != nullptr) {
    for (SweepBlock& slot : ring) {
      slot.frames.resize(kSweepBlock * BinaryLog::kRecordBytes);
    }
  }

  // Evaluates worker `tid`'s queued jobs into the next slots of `out`
  // and encodes their frames.
  const auto evaluate_queued = [&](SweepBlock& out, int tid) {
    SweepWorker& worker = workers[static_cast<std::size_t>(tid)];
    if (worker.queued == 0) return;
    const std::size_t at = out.count;
    out.count += worker.queued;
    if (out.results.size() < out.count) out.results.resize(out.count);
    engine.evaluate_block(
        tid,
        std::span<const explore::EvalJob>(worker.jobs).first(worker.queued),
        std::span(out.results).subspan(at, worker.queued));
    if (log != nullptr) {
      for (std::size_t i = 0; i < worker.queued; ++i) {
        BinaryLog::encode_record(
            out.results[at + i], worker.labels[i],
            out.frames.data() + (out.fresh + i) * BinaryLog::kRecordBytes);
      }
    }
    out.fresh += worker.queued;
    worker.queued = 0;
  };

  std::vector<explore::EvalResult> results;
  results.reserve(static_cast<std::size_t>(
      std::min(range.size(), space.point_count())));
  runtime::run_ordered_blocks(
      team, static_cast<std::size_t>((range.size() + kSweepBlock - 1) /
                                     kSweepBlock),
      ring,
      [&](SweepBlock& out, std::size_t block, int tid) {
        SweepWorker& worker = workers[static_cast<std::size_t>(tid)];
        out.count = 0;
        out.fresh = 0;
        const std::uint64_t first = range.begin + block * kSweepBlock;
        const std::uint64_t last = std::min(first + kSweepBlock, range.end);
        auto seed = std::partition_point(
            prior.begin(), prior.end(),
            [first](const PriorPoint& point) { return point.flat < first; });
        Coords coords = space.decode(first);
        // mslint: hot-path — once per flat of the sweep.
        for (std::uint64_t flat = first; flat < last; ++flat) {
          if (space.is_canonical(coords)) {
            if (seed != prior.end() && seed->flat == flat) {
              // A seeded point: a copy of its record, in flat order.
              evaluate_queued(out, tid);
              if (out.results.size() == out.count) {
                out.results.emplace_back();
              }
              explore::EvalResult& copy = out.results[out.count++];
              copy = *seed->record;
              copy.index = static_cast<std::size_t>(flat);
              copy.from_cache = true;
              ++seed;
            } else {
              if (worker.queued == kSweepBatch) evaluate_queued(out, tid);
              explore::EvalJob& job = worker.jobs[worker.queued];
              space.job_at(coords, &job);
              job.index = static_cast<std::size_t>(flat);
              if (labels) {
                worker.labels[worker.queued] = labels->of(spec, coords);
              }
              ++worker.queued;
            }
          }
          // Mixed-radix increment: the coordinates of flat + 1.
          for (std::size_t dim = SearchSpace::kDims; dim-- > 0;) {
            if (++coords[dim] < radix[dim]) break;
            coords[dim] = 0;
          }
        }
        // mslint: cold
        evaluate_queued(out, tid);
      },
      [&](SweepBlock& in, std::size_t /*block*/) {
        if (log != nullptr) {
          log->append_records(std::string_view(
              in.frames.data(), in.fresh * BinaryLog::kRecordBytes));
        }
        for (std::size_t i = 0; i < in.count; ++i) {
          results.push_back(std::move(in.results[i]));
        }
      });
  if (log != nullptr) log->flush();
  return results;
}

SearchOutcome run_search(explore::ExploreEngine& engine,
                         const SearchSpace& space,
                         const SearchOptions& options, RunLog* log,
                         std::span<const PriorPoint> prior) {
  MS_CHECK(options.budget >= 1, "search budget must be at least 1");
  SearchOutcome outcome;
  Funnel funnel(engine, space, log, &outcome, options.cost_metric, prior);
  util::Xoshiro256 rng(options.seed);
  switch (options.strategy) {
    case Strategy::kRandom:
      random_search(funnel, space, options, rng);
      break;
    case Strategy::kHillClimb:
      hill_climb(funnel, space, options, rng, &outcome);
      break;
    case Strategy::kAnneal:
      anneal(funnel, space, options, rng, &outcome);
      break;
    case Strategy::kGenetic:
      genetic(funnel, space, options, rng);
      break;
    case Strategy::kPareto:
      pareto_search(funnel, space, options, rng);
      break;
  }
  funnel.fold_unproposed_prior();
  funnel.record_trace();
  return outcome;
}

}  // namespace mergescale::search
