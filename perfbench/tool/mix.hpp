#pragma once
// Seeded serve query mix, shared by the socket load generator and the
// in-process replay so both send the same requests for the same seed.
//
// Point clients: 60% on-grid `eval` (archive hits), 20% off-grid `eval`
// (a distinct half-integer rl per request, so every one is a live
// evaluation), 10% `best`, 10% `topk 10`.  The analytic client cycles
// `pareto area`, `pareto cores`, `topk 1000`.

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>

#include "grid.hpp"

namespace perfbench {

enum class Kind {
  kEvalHit,
  kEvalMiss,
  kBest,
  kTopK10,
  kParetoArea,
  kParetoCores,
  kTopK1000,
};
inline constexpr int kKinds = 7;

inline const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kEvalHit: return "eval_hit";
    case Kind::kEvalMiss: return "eval_miss";
    case Kind::kBest: return "best";
    case Kind::kTopK10: return "topk10";
    case Kind::kParetoArea: return "pareto_area";
    case Kind::kParetoCores: return "pareto_cores";
    case Kind::kTopK1000: return "topk1000";
  }
  return "?";
}

inline bool is_point(Kind kind) {
  return kind == Kind::kEvalHit || kind == Kind::kEvalMiss ||
         kind == Kind::kBest || kind == Kind::kTopK10;
}

struct MixQuery {
  Kind kind = Kind::kBest;
  std::string line;  ///< request line, no newline
};

/// One point client's request stream.  Off-grid points of stream `stream`
/// use rl = k + 0.5 with (k - 1) % streams == stream, so concurrent streams
/// never ask for the same fresh point and every miss stays a miss.
class PointMix {
 public:
  PointMix(std::uint64_t seed, int stream, int streams)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(stream)),
        stream_(stream),
        streams_(streams) {}

  MixQuery next() {
    const std::uint64_t roll = pick(100);
    if (roll < 60) return eval(false);
    if (roll < 80) return eval(true);
    if (roll < 90) return {Kind::kBest, "best"};
    return {Kind::kTopK10, "topk 10"};
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  MixQuery eval(bool miss) {
    for (;;) {
      const std::uint64_t variant = pick(2);
      const std::uint64_t app = pick(3);
      const std::uint64_t growth = pick(3);
      const std::uint64_t r = 1 + pick(kSmallCores);
      std::uint64_t rl = 1 + pick(kSizes);
      std::string rl_text = std::to_string(rl);
      if (miss) {
        // k in [1, kSizes) with (k - 1) % streams == stream; rl = k + 0.5.
        const std::uint64_t slots = (kSizes - 1 - stream_) / streams_ + 1;
        rl = 1 + static_cast<std::uint64_t>(stream_) +
             pick(slots) * static_cast<std::uint64_t>(streams_);
        if (rl >= static_cast<std::uint64_t>(kSizes)) continue;
        const std::uint64_t code =
            (((variant * 3 + app) * 3 + growth) * 64 + r) * 4096 + rl;
        if (!used_.insert(code).second) continue;
        rl_text = std::to_string(rl) + ".5";
      }
      std::string line = std::string("eval variant=") + kVariants[variant] +
                         " n=" + std::to_string(kBudget) +
                         " app=" + kApps[app] + " growth=" + kGrowths[growth] +
                         " r=" + std::to_string(r) + " rl=" + rl_text;
      if (variant == 1) line += std::string(" topology=") + kTopology;
      return {miss ? Kind::kEvalMiss : Kind::kEvalHit, std::move(line)};
    }
  }

  std::mt19937_64 rng_;
  int stream_;
  int streams_;
  std::unordered_set<std::uint64_t> used_;
};

/// The analytic client's fixed cycle.
inline MixQuery analytic_query(std::uint64_t i) {
  switch (i % 3) {
    case 0: return {Kind::kParetoArea, "pareto area"};
    case 1: return {Kind::kParetoCores, "pareto cores"};
    default: return {Kind::kTopK1000, "topk 1000"};
  }
}

}  // namespace perfbench
