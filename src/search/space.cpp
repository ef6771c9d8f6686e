#include "search/space.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mergescale::search {

namespace {

/// Positions of `axis` sorted by key_of(), equal keys in position order.
template <typename Entry, typename KeyOf>
std::vector<std::size_t> sorted_positions(const std::vector<Entry>& axis,
                                          KeyOf key_of) {
  std::vector<std::size_t> order(axis.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key_of(axis[a]) < key_of(axis[b]);
                   });
  return order;
}

/// For each entry of `axis`, the position of the first entry with the
/// same key_of(): the value a repeated entry is canonicalized to.  Sorts
/// positions by key, so a long size axis costs one allocation.
template <typename Entry, typename KeyOf>
std::vector<std::size_t> first_occurrences(const std::vector<Entry>& axis,
                                           KeyOf key_of) {
  const std::vector<std::size_t> order = sorted_positions(axis, key_of);
  std::vector<std::size_t> first(axis.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const bool repeat =
        k > 0 && !(key_of(axis[order[k - 1]]) < key_of(axis[order[k]]));
    first[order[k]] = repeat ? first[order[k - 1]] : order[k];
  }
  return first;
}

/// The first position of `axis` whose key_of() is `key`, by binary
/// search of `sorted` (sorted_positions of the same key_of).
template <typename Entry, typename KeyOf, typename Key>
std::optional<std::size_t> position_of(const std::vector<std::size_t>& sorted,
                                       const std::vector<Entry>& axis,
                                       KeyOf key_of, const Key& key) {
  const auto it = std::partition_point(
      sorted.begin(), sorted.end(),
      [&](std::size_t pos) { return key_of(axis[pos]) < key; });
  if (it == sorted.end() || !(key_of(axis[*it]) == key)) return std::nullopt;
  return *it;
}

// index_of's keys: DesignKey's own comparison of each coordinate.
constexpr auto kBitsOf = [](double value) { return design_bits(value); };
constexpr auto kLabelOf = [](const auto& entry) {
  return explore::label_of(entry);
};
constexpr auto kVariantOf = [](core::ModelVariant variant) { return variant; };

}  // namespace

SearchSpace::SearchSpace(explore::ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  if (spec_.sizes.empty()) {
    const double max_budget = *std::max_element(spec_.chip_budgets.begin(),
                                                spec_.chip_budgets.end());
    sizes_ = core::power_of_two_sizes(max_budget);
  } else {
    sizes_ = spec_.sizes;
  }
  // Inert axes still need one value so the grid stays a plain product.
  smalls_ = spec_.small_core_sizes.empty() ? std::vector<double>{1.0}
                                           : spec_.small_core_sizes;
  comm_laws_ = explore::comm_laws(spec_);
  // Equal values are equal points: apps by label and parameters, laws
  // by (kind, exponent, interned name).
  const auto value_of = [](double value) { return value; };
  first_[0] = first_occurrences(spec_.chip_budgets, value_of);
  first_[1] = first_occurrences(spec_.apps, [](const core::AppParams& app) {
    return std::tie(app.name, app.f, app.fcon, app.fored);
  });
  first_[2] =
      first_occurrences(spec_.growths, [](const core::GrowthFunction& law) {
        return std::make_tuple(law.kind(), law.exponent(), law.name_id());
      });
  first_[3] = first_occurrences(
      spec_.variants, [](core::ModelVariant variant) { return variant; });
  first_[4] = spec_.topologies.empty()
                  ? std::vector<std::size_t>{0}
                  : first_occurrences(spec_.topologies,
                                      [](noc::Topology t) { return t; });
  first_[5] = first_occurrences(smalls_, value_of);
  first_[6] = first_occurrences(sizes_, value_of);
  by_key_[0] = sorted_positions(spec_.chip_budgets, kBitsOf);
  by_key_[1] = sorted_positions(spec_.apps, kLabelOf);
  by_key_[2] = sorted_positions(spec_.growths, kLabelOf);
  by_key_[3] = sorted_positions(spec_.variants, kVariantOf);
  by_key_[4] = sorted_positions(spec_.topologies, kLabelOf);
  by_key_[5] = sorted_positions(smalls_, kBitsOf);
  by_key_[6] = sorted_positions(sizes_, kBitsOf);
  size_ = 1;
  for (std::size_t dim = 0; dim < kDims; ++dim) size_ *= axis_size(dim);
}

std::size_t SearchSpace::axis_size(std::size_t dim) const {
  MS_CHECK(dim < kDims, "axis dimension out of range");
  return first_[dim].size();  // one entry per axis value
}

Coords SearchSpace::decode(std::uint64_t flat) const {
  MS_CHECK(flat < size_, "flat index out of range");
  Coords coords{};
  for (std::size_t dim = kDims; dim-- > 0;) {
    const std::uint64_t radix = axis_size(dim);
    coords[dim] = static_cast<std::size_t>(flat % radix);
    flat /= radix;
  }
  return coords;
}

std::uint64_t SearchSpace::encode(const Coords& coords) const {
  std::uint64_t flat = 0;
  for (std::size_t dim = 0; dim < kDims; ++dim) {
    MS_CHECK(coords[dim] < axis_size(dim), "coordinate out of range");
    flat = flat * axis_size(dim) + coords[dim];
  }
  return flat;
}

Coords SearchSpace::canonical_coords(Coords coords) const {
  for (std::size_t dim = 0; dim < kDims; ++dim) {
    coords[dim] = first_[dim][coords[dim]];
  }
  const core::ModelVariant variant = spec_.variants[coords[3]];
  if (!core::is_comm_variant(variant)) coords[4] = 0;
  if (!core::is_asymmetric_variant(variant)) coords[5] = 0;
  return coords;
}

std::optional<std::uint64_t> SearchSpace::canonical(std::uint64_t flat) const {
  const Coords coords = canonical_coords(decode(flat));
  if (!in_bounds(coords)) return std::nullopt;
  return encode(coords);
}

bool SearchSpace::is_canonical(const Coords& coords) const {
  return canonical_coords(coords) == coords && in_bounds(coords);
}

std::optional<std::uint64_t> SearchSpace::index_of(
    const DesignKey& key) const {
  // The first position holding a key is its value's first occurrence,
  // the coordinate canonical() picks; the inert axes stay 0, as there.
  Coords coords{};
  const auto at = [&](std::size_t dim, std::optional<std::size_t> pos) {
    if (pos) coords[dim] = *pos;
    return pos.has_value();
  };
  const auto value_at = [&](std::size_t dim, const std::vector<double>& axis,
                            double value) {
    return at(dim, position_of(by_key_[dim], axis, kBitsOf,
                               design_bits(value)));
  };
  // job_at's r is the small core for the asymmetric variants and the one
  // core size otherwise; rl is the large core, or 0 when unused.
  const bool asym = core::is_asymmetric_variant(key.variant);
  const bool found =
      value_at(0, spec_.chip_budgets, key.n) &&
      at(1, position_of(by_key_[1], spec_.apps, kLabelOf, key.app)) &&
      at(2, position_of(by_key_[2], spec_.growths, kLabelOf, key.growth)) &&
      at(3, position_of(by_key_[3], spec_.variants, kVariantOf,
                        key.variant)) &&
      (core::is_comm_variant(key.variant)
           ? at(4, position_of(by_key_[4], spec_.topologies, kLabelOf,
                               key.topology))
           : key.topology == "-") &&
      (asym ? value_at(5, smalls_, key.r) && value_at(6, sizes_, key.rl)
            : design_bits(key.rl) == design_bits(0.0) &&
                  value_at(6, sizes_, key.r));
  if (!found || !in_bounds(coords)) return std::nullopt;
  return encode(coords);
}

std::uint64_t SearchSpace::point_count() const {
  // Axis `dim`'s first occurrences at which `fits` holds.
  const auto distinct = [this](std::size_t dim, const auto& fits) {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < first_[dim].size(); ++i) {
      if (first_[dim][i] == i && fits(i)) ++count;
    }
    return count;
  };
  const auto any = [](std::size_t) { return true; };
  const std::uint64_t cells = distinct(1, any) * distinct(2, any);
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < spec_.chip_budgets.size(); ++b) {
    if (first_[0][b] != b) continue;
    const double n = spec_.chip_budgets[b];
    const std::uint64_t sizes =
        distinct(6, [&](std::size_t i) { return sizes_[i] <= n; });
    const std::uint64_t smalls =
        distinct(5, [&](std::size_t i) { return smalls_[i] <= n; });
    std::uint64_t per_cell = 0;
    for (std::size_t v = 0; v < spec_.variants.size(); ++v) {
      if (first_[3][v] != v) continue;
      const core::ModelVariant variant = spec_.variants[v];
      per_cell += (core::is_comm_variant(variant) ? distinct(4, any) : 1) *
                  (core::is_asymmetric_variant(variant) ? smalls : 1) * sizes;
    }
    count += cells * per_cell;
  }
  return count;
}

bool SearchSpace::in_bounds(const Coords& coords) const {
  // The shared size grid spans the largest budget; reject candidates that
  // do not fit this point's own chip.
  const double n = spec_.chip_budgets[coords[0]];
  return sizes_[coords[6]] <= n &&
         (!core::is_asymmetric_variant(spec_.variants[coords[3]]) ||
          smalls_[coords[5]] <= n);
}

bool SearchSpace::job_at(const Coords& coords, explore::EvalJob* out) const {
  if (!in_bounds(coords)) return false;
  const double n = spec_.chip_budgets[coords[0]];
  const core::ModelVariant variant = spec_.variants[coords[3]];
  const bool asym = core::is_asymmetric_variant(variant);
  const double size = sizes_[coords[6]];
  const double small = smalls_[coords[5]];
  const core::GrowthFunction* comm =
      core::is_comm_variant(variant) ? &comm_laws_[coords[4]] : nullptr;
  explore::point_job(*out, spec_, variant, n, spec_.apps[coords[1]],
                     spec_.growths[coords[2]], comm, asym ? small : size,
                     size);
  return true;
}

ShardPlan::ShardPlan(std::uint64_t space_size, std::size_t shard_count)
    : space_size_(space_size), shard_count_(shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("shard plan: shard count must be >= 1");
  }
}

ShardRange ShardPlan::range(std::size_t shard) const {
  MS_CHECK(shard < shard_count_, "shard index out of range");
  const std::uint64_t base = space_size_ / shard_count_;
  const std::uint64_t extra = space_size_ % shard_count_;
  // The first `extra` shards take one point more; begin offsets follow.
  const std::uint64_t wide = std::min<std::uint64_t>(shard, extra);
  ShardRange range;
  range.begin = shard * base + wide;
  range.end = range.begin + base + (shard < extra ? 1 : 0);
  return range;
}

std::size_t ShardPlan::shard_of(std::uint64_t flat) const {
  MS_CHECK(flat < space_size_, "flat index out of range");
  const std::uint64_t base = space_size_ / shard_count_;
  const std::uint64_t extra = space_size_ % shard_count_;
  // Wide shards (base + 1 points each) tile the first extra*(base+1)
  // indices; the remaining shards are exactly `base` points.
  const std::uint64_t wide_span = extra * (base + 1);
  if (flat < wide_span) return static_cast<std::size_t>(flat / (base + 1));
  return static_cast<std::size_t>(extra + (flat - wide_span) / base);
}

std::uint64_t ShardPlan::shard_seed(std::uint64_t seed, std::size_t shard,
                                    std::size_t shard_count) {
  // Fold the shard count into the stream start so the same (seed, i)
  // under a different K is a different trajectory — two partitions of
  // one space must not share walker streams, or their merged union
  // would double-walk identical proposals.
  util::SplitMix64 stream(seed ^ (0x9E3779B97F4A7C15ULL *
                                  static_cast<std::uint64_t>(shard_count)));
  std::uint64_t derived = stream.next();
  for (std::size_t i = 0; i < shard; ++i) derived = stream.next();
  return derived;
}

ShardSpec parse_shard_spec(std::string_view text) {
  const auto fail = [&text]() {
    throw std::invalid_argument("malformed shard spec: '" +
                                std::string(text) +
                                "' (expected i/K with 0 <= i < K)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) fail();
  const std::string_view index_text = text.substr(0, slash);
  const std::string_view count_text = text.substr(slash + 1);
  ShardSpec spec;
  auto parse_field = [&fail](std::string_view field, std::size_t* out) {
    const auto result =
        std::from_chars(field.data(), field.data() + field.size(), *out);
    if (result.ec != std::errc{} ||
        result.ptr != field.data() + field.size()) {
      fail();
    }
  };
  parse_field(index_text, &spec.index);
  parse_field(count_text, &spec.count);
  if (spec.count == 0 || spec.index >= spec.count) fail();
  return spec;
}

}  // namespace mergescale::search
