#include "search/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

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
/// increasing speedup and one entry per cost value — the incremental
/// form of the invariants explore::pareto_frontier establishes for a
/// full sweep.  Shared by the outcome archive (EvalResult entries) and
/// the kPareto parent pool (coordinate entries); `cost_fn`/`speedup_fn`
/// project the objectives out of an entry.
template <typename Entry, typename CostFn, typename SpeedupFn>
void fold_into_frontier(std::vector<Entry>& frontier, Entry entry,
                        CostFn cost_fn, SpeedupFn speedup_fn) {
  const double cost = cost_fn(entry);
  const double speedup = speedup_fn(entry);
  auto slot = std::lower_bound(
      frontier.begin(), frontier.end(), cost,
      [&](const Entry& member, double c) { return cost_fn(member) < c; });
  if (slot != frontier.end() && cost_fn(*slot) == cost) {
    if (speedup <= speedup_fn(*slot)) return;  // dominated twin
    *slot = std::move(entry);
  } else {
    if (slot != frontier.begin() &&
        speedup_fn(*std::prev(slot)) >= speedup) {
      return;  // a cheaper entry is at least as fast
    }
    slot = frontier.insert(slot, std::move(entry));
  }
  // Drop costlier members the improved entry now dominates.
  const auto tail = std::next(slot);
  auto done = tail;
  while (done != frontier.end() && speedup_fn(*done) <= speedup) ++done;
  frontier.erase(tail, done);
}

/// What a strategy learns from a proposal (out of bounds: infeasible).
struct Score {
  bool feasible = false;
  double speedup = 0.0;
  double cost = 0.0;  ///< explore::cost_of under SearchOptions::cost_metric
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
                 explore::cost_of(result, metric_)};
  }

  /// Folds one result into the incumbent best and the Pareto archive.
  void fold(const explore::EvalResult& result) {
    if (result.feasible &&
        (!outcome_->found || result.speedup > outcome_->best.speedup)) {
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
        walker.temperature = options.t0;
        walker.seeded = true;
        ++outcome->restarts;
        continue;
      }
      // Relative acceptance: deltas are normalized by the incumbent best
      // so t0 is a speedup *fraction*, independent of the space's scale.
      const double scale = std::max(funnel.best_speedup(), 1.0);
      const double delta = (candidate_value - walker.value) / scale;
      if (delta >= 0.0 ||
          walker.rng.uniform() < std::exp(delta / walker.temperature)) {
        walker.coords = batch[i];
        walker.value = candidate_value;
      }
      walker.temperature *= options.cooling;
      if (walker.temperature <= options.t_min) walker.seeded = false;
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
        walkers[worst].temperature = options.t0;  // reheat at the new basin
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

/// Population-based genetic search.  Whole generations are submitted as
/// one deduped batch, so the engine's thread team stays saturated instead
/// of idling between single annealing moves.  Selection is a 3-way
/// tournament on fitness (feasible speedup), recombination is per-axis
/// uniform crossover over the mixed-radix grid, mutation perturbs an
/// expected one axis per child (±1 step with occasional full-axis
/// jumps), and the top `options.elite` individuals carry over unchanged.
/// Elites were evaluated in the previous generation, so resubmitting
/// them costs revisits, not budget.  One child in four is a random
/// immigrant, which keeps the search ergodic: given enough budget the
/// strategy reaches every grid point instead of collapsing onto a
/// converged population.
void genetic(Funnel& funnel, const SearchSpace& space,
             const SearchOptions& options, util::Xoshiro256& rng) {
  const std::size_t pop = std::max<std::size_t>(2, options.population);
  const std::size_t elite = std::min<std::size_t>(options.elite, pop - 1);

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
    // Rank by fitness (ties toward lower index) for elitism.
    std::vector<std::size_t> order(population.size());
    std::iota(order.begin(), order.end(), 0);
    const std::size_t keep = std::min(elite, order.size());
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        if (fitness[a] != fitness[b]) {
                          return fitness[a] > fitness[b];
                        }
                        return a < b;
                      });

    std::vector<Coords> next;
    next.reserve(pop);
    for (std::size_t i = 0; i < keep; ++i) {
      next.push_back(population[order[i]]);
    }
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
    double speedup;
  };
  std::vector<Member> pool;
  auto update_pool = [&](const Coords& coords, const Score& score) {
    if (!score.feasible) return;
    fold_into_frontier(
        pool, Member{coords, score.cost, score.speedup},
        [](const Member& m) { return m.cost; },
        [](const Member& m) { return m.speedup; });
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
      [](const explore::EvalResult& r) { return r.speedup; });
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

std::vector<explore::EvalResult> run_sweep(explore::ExploreEngine& engine,
                                           const SearchSpace& space,
                                           const ShardRange& range,
                                           RunLog* log,
                                           std::span<const PriorPoint> prior) {
  std::vector<explore::EvalResult> results;
  results.reserve(static_cast<std::size_t>(
      std::min(range.size(), space.point_count())));
  // Job slots are reused across chunks: a fresh EvalJob costs more to
  // construct than to fill.
  std::vector<explore::EvalJob> jobs;
  std::vector<std::uint64_t> flats;
  auto seed = prior.begin();
  while (seed != prior.end() && seed->flat < range.begin) ++seed;
  for (std::uint64_t begin = range.begin; begin < range.end;
       begin += kSweepChunk) {
    const std::uint64_t end = std::min(begin + kSweepChunk, range.end);
    const auto chunk_seeds = seed;
    while (seed != prior.end() && seed->flat < end) ++seed;
    flats.clear();
    auto next = chunk_seeds;
    for (std::uint64_t flat = begin; flat < end; ++flat) {
      if (space.canonical(flat) != flat) continue;
      if (next != seed && next->flat == flat) {
        ++next;  // copied below
        continue;
      }
      if (flats.size() == jobs.size()) jobs.emplace_back();
      space.job_at(space.decode(flat), &jobs[flats.size()]);
      jobs[flats.size()].index = flats.size();
      flats.push_back(flat);
    }
    const std::size_t first = results.size();
    results.resize(first + flats.size());
    engine.run(std::span(jobs).first(flats.size()),
               std::span(results).subspan(first));
    for (std::size_t i = 0; i < flats.size(); ++i) {
      explore::EvalResult& result = results[first + i];
      result.index = static_cast<std::size_t>(flats[i]);
      if (log != nullptr) log->append(result);
    }
    // The chunk's seeded flats: copies of their records, merged in.
    const auto copied = static_cast<std::ptrdiff_t>(results.size());
    for (auto from = chunk_seeds; from != seed; ++from) {
      explore::EvalResult& copy = results.emplace_back(*from->record);
      copy.index = static_cast<std::size_t>(from->flat);
      copy.from_cache = true;
    }
    std::inplace_merge(results.begin() + static_cast<std::ptrdiff_t>(first),
                       results.begin() + copied, results.end(),
                       [](const explore::EvalResult& a,
                          const explore::EvalResult& b) {
                         return a.index < b.index;
                       });
  }
  if (log != nullptr) log->flush();
  return results;
}

SearchOutcome run_search(explore::ExploreEngine& engine,
                         const SearchSpace& space,
                         const SearchOptions& options, RunLog* log,
                         std::span<const PriorPoint> prior) {
  MS_CHECK(options.budget >= 1, "search budget must be at least 1");
  MS_CHECK(options.t0 > 0.0 && options.cooling > 0.0 &&
               options.cooling < 1.0 && options.t_min > 0.0,
           "annealing schedule parameters out of range");
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
