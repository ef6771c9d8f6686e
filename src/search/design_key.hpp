#pragma once
// Design-point identity: the (variant, n, r, rl, app, growth, topology)
// tuple under which RunLog::dedup (and so RunLog::fold), the archive's
// point lookup (SearchSpace::index_of, then ArchiveReader::find among
// the rows of that index) and the query server's maps of the delta and
// of the archive's past-grid rows decide that two records describe the
// same design.
//
// Doubles compare by bit pattern, so -0.0 and +0.0 are different points
// and infinities match themselves.  NaNs compare by sign alone (payload
// bits are ignored): the identity of the hexfloat string key this type
// replaced, which printed every NaN as "nan" or "-nan".  Labels compare
// as exact byte strings.  A key holds views into the record (or archive
// dictionary) it was taken from and must not outlive it.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "explore/engine.hpp"

namespace mergescale::search {

/// Bit pattern a double contributes to a design key: its exact bits,
/// except that each NaN maps to the quiet NaN of its sign.
inline std::uint64_t design_bits(double value) noexcept {
  if (std::isnan(value)) {
    return std::signbit(value) ? 0xFFF8000000000000ull : 0x7FF8000000000000ull;
  }
  return std::bit_cast<std::uint64_t>(value);
}

struct DesignKey {
  core::ModelVariant variant = core::ModelVariant::kSymmetric;
  double n = 0.0;
  double r = 0.0;
  double rl = 0.0;
  std::string_view app;
  std::string_view growth;
  std::string_view topology;

  static DesignKey of(const explore::EvalResult& result) noexcept {
    return {result.variant, result.n,   result.r,       result.rl,
            result.app,     result.growth, result.topology};
  }

  friend bool operator==(const DesignKey& a, const DesignKey& b) noexcept {
    return a.variant == b.variant && design_bits(a.n) == design_bits(b.n) &&
           design_bits(a.r) == design_bits(b.r) &&
           design_bits(a.rl) == design_bits(b.rl) && a.app == b.app &&
           a.growth == b.growth && a.topology == b.topology;
  }
};

struct DesignKeyHash {
  std::size_t operator()(const DesignKey& key) const noexcept {
    // Multiply-xor accumulation with a splitmix64 finalizer: every input
    // word reaches every output bit, which RunLog's dedup table relies
    // on (its home slot is the low bits).
    const std::hash<std::string_view> label;
    std::uint64_t h =
        static_cast<std::uint64_t>(key.variant) + 0x9E3779B97F4A7C15ull;
    for (const std::uint64_t word :
         {design_bits(key.n), design_bits(key.r), design_bits(key.rl),
          std::uint64_t{label(key.app)}, std::uint64_t{label(key.growth)},
          std::uint64_t{label(key.topology)}}) {
      h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

}  // namespace mergescale::search
