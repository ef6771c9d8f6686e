#include "search/space.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "core/comm_model.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mergescale::search {

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
  size_ = 1;
  for (std::size_t dim = 0; dim < kDims; ++dim) size_ *= axis_size(dim);
}

std::size_t SearchSpace::axis_size(std::size_t dim) const {
  switch (dim) {
    case 0: return spec_.chip_budgets.size();
    case 1: return spec_.apps.size();
    case 2: return spec_.growths.size();
    case 3: return spec_.variants.size();
    case 4: return std::max<std::size_t>(1, spec_.topologies.size());
    case 5: return smalls_.size();
    case 6: return sizes_.size();
  }
  MS_CHECK(false, "axis dimension out of range");
  return 0;
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

bool SearchSpace::job_at(const Coords& coords, explore::EvalJob* out) const {
  const double n = spec_.chip_budgets[coords[0]];
  const core::ModelVariant variant = spec_.variants[coords[3]];
  const bool asym = core::is_asymmetric_variant(variant);
  const double size = sizes_[coords[6]];
  const double small = smalls_[coords[5]];
  // The shared size grid spans the largest budget; reject candidates that
  // do not fit this point's own chip.
  if (size > n) return false;
  if (asym && small > n) return false;

  const core::GrowthFunction* comm =
      core::is_comm_variant(variant) ? &comm_laws_[coords[4]] : nullptr;
  *out = explore::point_job(spec_, variant, n, spec_.apps[coords[1]],
                            spec_.growths[coords[2]], comm,
                            asym ? small : size, size);
  return true;
}

namespace {

/// Assign-if-different helpers for slot reuse: identity is judged the
/// way the rest of the hot path judges it — (kind, interned name,
/// exponent) for law objects, value fields for app parameters — so an
/// unchanged field costs a few POD compares instead of a string and
/// std::function copy.
void assign_growth(core::GrowthFunction& dst, const core::GrowthFunction& src) {
  if (dst.kind() != src.kind() || dst.name_id() != src.name_id() ||
      dst.exponent() != src.exponent()) {
    dst = src;
  }
}

void assign_perf(core::PerfLaw& dst, const core::PerfLaw& src) {
  if (dst.name_id() != src.name_id() || dst.exponent() != src.exponent()) {
    dst = src;
  }
}

void assign_app(core::AppParams& dst, const core::AppParams& src) {
  if (dst.f != src.f || dst.fcon != src.fcon || dst.fored != src.fored ||
      dst.name != src.name) {
    dst = src;
  }
}

void assign_string(std::string& dst, std::string_view src) {
  if (dst != src) dst = src;
}

}  // namespace

void SearchSpace::jobs_in(std::uint64_t begin, std::uint64_t end,
                          std::vector<explore::EvalJob>& out) const {
  MS_CHECK(begin <= end && end <= size_, "job range out of bounds");
  std::size_t count = 0;
  Coords coords = begin < end ? decode(begin) : Coords{};
  for (std::uint64_t flat = begin; flat < end; ++flat) {
    const double n = spec_.chip_budgets[coords[0]];
    const core::ModelVariant variant = spec_.variants[coords[3]];
    const bool asym = core::is_asymmetric_variant(variant);
    const double size = sizes_[coords[6]];
    const double small = smalls_[coords[5]];
    const bool in_bounds = size <= n && (!asym || small <= n);
    if (in_bounds) {
      if (count == out.size()) out.emplace_back();
      explore::EvalJob& job = out[count];
      job.index = count;
      assign_string(job.scenario, spec_.name);
      job.request.variant = variant;
      job.request.chip.n = n;
      assign_perf(job.request.chip.perf, spec_.perf);
      assign_app(job.request.app, spec_.apps[coords[1]]);
      assign_growth(job.request.growth, spec_.growths[coords[2]]);
      if (core::is_comm_variant(variant)) {
        const noc::Topology topology = spec_.topologies[coords[4]];
        assign_growth(job.request.comm_growth, core::comm_growth(topology));
        job.request.comp_share = spec_.comp_share;
        assign_string(job.topology, noc::topology_name(topology));
      } else {
        assign_string(job.topology, "-");
      }
      if (asym) {
        job.request.r = small;
        job.request.rl = size;
      } else {
        job.request.r = size;
        job.request.rl = 0.0;
      }
      ++count;
    }
    // Mixed-radix increment, innermost axis first.
    for (std::size_t dim = kDims; dim-- > 0;) {
      if (++coords[dim] < axis_size(dim)) break;
      coords[dim] = 0;
    }
  }
  out.resize(count);
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
