#pragma once
// Design-point identity: the (variant, n, r, rl, app, growth, topology)
// tuple under which RunLog::dedup (and so RunLog::fold), the archive's
// point lookup (ArchiveReader::find) and the query server's delta map
// decide that two records describe the same design.
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
    return static_cast<std::size_t>(combine(key.variant, key.n, key.r, key.rl,
                                            label(key.app), label(key.growth),
                                            label(key.topology)));
  }

  /// One label's contribution.  The archive's key table hashes each
  /// dictionary entry once and combine()s per row; the result equals
  /// operator() over the same fields.
  static std::uint64_t label(std::string_view text) noexcept {
    return std::hash<std::string_view>{}(text);
  }

  static std::uint64_t combine(core::ModelVariant variant, double n, double r,
                               double rl, std::uint64_t app,
                               std::uint64_t growth,
                               std::uint64_t topology) noexcept {
    // Multiply-xor accumulation with a splitmix64 finalizer: every input
    // word reaches every output bit, which the archive's table relies on
    // (its home slot is the low bits, its collision tag the high ones).
    std::uint64_t h = static_cast<std::uint64_t>(variant) + 0x9E3779B97F4A7C15ull;
    for (const std::uint64_t word :
         {design_bits(n), design_bits(r), design_bits(rl), app, growth,
          topology}) {
      h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    return h ^ (h >> 31);
  }
};

}  // namespace mergescale::search
