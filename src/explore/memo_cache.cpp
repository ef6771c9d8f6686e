#include "explore/memo_cache.hpp"

#include <bit>

#include "util/check.hpp"

// mslint: hot-path — hashing and the shard probe paths; the resize and
// setup paths below flip back to cold where they start.

namespace mergescale::explore {

namespace {

constexpr std::uint64_t kSeed = 1469598103934665603ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer over the running hash xor the value.
  h ^= v;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// One lane step: xor the word in and multiply, then fold the product's
/// high half down and multiply again.  A bare `(h ^ word) * odd` only
/// carries bits upward: words that differ only in their high bits —
/// power-of-two doubles differ only in the exponent — would leave the
/// lanes differing in their top few bits alone, and the lanes' xor would
/// collide.
std::uint64_t lane(std::uint64_t h, std::uint64_t word, std::uint64_t m) {
  h = (h ^ word) * m;
  return (h ^ (h >> 32)) * m;
}

}  // namespace

CacheKey cache_key(const core::EvalRequest& request) {
  // Normalize fields the variant does not read so logically identical
  // requests from different scenarios share one entry: the comm growth
  // and comp_share only matter for Eqs. 6/7, rl only for the asymmetric
  // variants.
  const bool comm = core::is_comm_variant(request.variant);
  const bool asym = core::is_asymmetric_variant(request.variant);

  CacheKey key;
  key.variant = static_cast<std::uint8_t>(request.variant);
  key.growth_kind = static_cast<std::uint8_t>(request.growth.kind());
  key.comm_growth_kind =
      comm ? static_cast<std::uint8_t>(request.comm_growth.kind()) : 0;
  key.nums = {request.chip.n,
              request.chip.perf.exponent(),
              request.app.f,
              request.app.fcon,
              request.app.fored,
              comm ? request.comp_share : 0.0,
              request.growth.exponent(),
              comm ? request.comm_growth.exponent() : 0.0,
              request.r,
              asym ? request.rl : 0.0};
  // Interned name IDs instead of the verbatim strings: the interner pins
  // each ID to its exact name (full-string comparison on intern), so ID
  // equality is verbatim-name equality and distinct custom laws can never
  // conflate — not via a hash collision and not via a crafted separator
  // inside a name.  ID 0 is the empty string, the natural normalization
  // for the comm growth the non-comm variants never read.
  key.perf_name = request.chip.perf.name_id();
  key.growth_name = request.growth.name_id();
  key.comm_growth_name = comm ? request.comm_growth.name_id() : 0;
  return key;
}

void cache_keys(std::span<const core::EvalRequest> requests,
                std::span<CacheKey> keys) {
  MS_CHECK(keys.size() == requests.size(),
           "cache_keys needs one key slot per request");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    keys[i] = cache_key(requests[i]);
  }
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  // Two independent multiply-xor accumulation lanes over the key's
  // words, one splitmix64 finalizer at the end.  A finalizer per word
  // (the old scheme) is a ~180-cycle serial dependency chain — long
  // enough to dominate every cache probe on the hot sweep — while the
  // two lanes here run in parallel and finalize once.
  constexpr std::uint64_t kM1 = 0x9e3779b97f4a7c15ull;
  constexpr std::uint64_t kM2 = 0xc2b2ae3d27d4eb4full;
  std::uint64_t a = kSeed;
  std::uint64_t b = ~kSeed;
  a = lane(a,
           (static_cast<std::uint64_t>(key.variant) << 16) |
               (static_cast<std::uint64_t>(key.growth_kind) << 8) |
               key.comm_growth_kind,
           kM1);
  b = lane(b,
           (static_cast<std::uint64_t>(key.perf_name) << 32) |
               key.growth_name,
           kM2);
  a = lane(a, key.comm_growth_name, kM1);
  for (std::size_t i = 0; i + 1 < key.nums.size(); i += 2) {
    a = lane(a, std::bit_cast<std::uint64_t>(key.nums[i]), kM1);
    b = lane(b, std::bit_cast<std::uint64_t>(key.nums[i + 1]), kM2);
  }
  return static_cast<std::size_t>(mix(a, b));
}

namespace {

/// Nonzero probe fingerprint of a hash: fp 0 is the empty-slot marker,
/// so force the low bit — the full key compare disambiguates the pair of
/// hashes any fingerprint now stands for.
std::uint64_t fingerprint(std::uint64_t hash) noexcept { return hash | 1; }

constexpr std::size_t kInitialSlots = 1024;

/// Block-op hash staging that fits an engine claim block without a heap
/// round trip.
constexpr std::size_t kStackHashes = 512;

}  // namespace

bool MemoCache::Shard::find(std::uint64_t hash, const CacheKey& key,
                            std::size_t* slot) const noexcept {
  if (fps.empty()) return false;
  const std::size_t mask = fps.size() - 1;
  const std::uint64_t fp = fingerprint(hash);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    if (fps[i] == 0) {
      *slot = i;
      return false;
    }
    if (fps[i] == fp && keys[i] == key) {
      *slot = i;
      return true;
    }
  }
}

bool MemoCache::Shard::put(std::uint64_t hash, const CacheKey& key,
                           const EvalOutcome& outcome) {
  // Grow at 3/4 load *before* probing, so find() always terminates at
  // an empty slot and an insert never probes a full table.
  if (fps.empty() || (used + 1) * 4 > fps.size() * 3) grow();
  std::size_t slot = 0;
  if (find(hash, key, &slot)) {
    vals[slot] = outcome;
    return false;
  }
  fps[slot] = fingerprint(hash);
  keys[slot] = key;
  vals[slot] = outcome;
  ++used;
  return true;
}

// mslint: cold — resize/setup paths: rehashing and shard construction
// allocate by design.

void MemoCache::Shard::grow() {
  // 4x growth: rehashing is the dominant amortized insert cost on a
  // cold exhaustive sweep, and quadrupling moves ~1.33 entries per
  // insert over a table's lifetime where doubling moves ~2.
  rebuild(fps.empty() ? kInitialSlots : fps.size() * 4);
}

void MemoCache::Shard::rebuild(std::size_t cap) {
  std::vector<std::uint64_t> old_fps = std::move(fps);
  std::vector<CacheKey> old_keys = std::move(keys);
  std::vector<EvalOutcome> old_vals = std::move(vals);
  fps.assign(cap, 0);
  keys.assign(cap, CacheKey{});
  vals.assign(cap, EvalOutcome{});
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < old_fps.size(); ++i) {
    if (old_fps[i] == 0) continue;
    std::size_t j = CacheKeyHash{}(old_keys[i]) & mask;
    while (fps[j] != 0) j = (j + 1) & mask;
    fps[j] = old_fps[i];
    keys[j] = old_keys[i];
    vals[j] = old_vals[i];
  }
}

MemoCache::MemoCache(std::size_t shard_count) {
  MS_CHECK(shard_count >= 1, "cache needs at least one shard");
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void MemoCache::reserve(std::size_t expected) {
  // Spread across shards with headroom for imbalance, then size each
  // table so `per_shard` entries stay under the 3/4 load ceiling.
  const std::size_t per_shard =
      (expected + shards_.size() - 1) / shards_.size() + 1;
  std::size_t cap = kInitialSlots;
  while (cap * 3 < per_shard * 4) cap *= 2;
  for (auto& shard : shards_) {
    util::WriterLock lock(shard->mu);
    if (cap > shard->fps.size()) shard->rebuild(cap);
  }
}

// mslint: hot-path — the probe paths proper: lookup/insert and their
// block forms run once per evaluated design point.

void MemoCache::group_by_shard(const std::uint64_t* hashes, std::size_t count,
                               std::uint32_t* order,
                               std::vector<std::uint32_t>& starts) const {
  const std::size_t nshards = shards_.size();
  starts.assign(nshards + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ++starts[shard_of(hashes[i]) + 1];
  }
  for (std::size_t s = 0; s < nshards; ++s) starts[s + 1] += starts[s];
  std::vector<std::uint32_t> cursor(starts.begin(), starts.end() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    order[cursor[shard_of(hashes[i])]++] = static_cast<std::uint32_t>(i);
  }
}

bool MemoCache::lookup(const CacheKey& key, EvalOutcome* out) const {
  const std::uint64_t hash = CacheKeyHash{}(key);
  Shard& shard = *shards_[shard_of(hash)];
  util::ReaderLock lock(shard.mu);
  std::size_t slot = 0;
  if (!shard.find(hash, key, &slot)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = shard.vals[slot];
  return true;
}

bool MemoCache::contains(const CacheKey& key) const {
  const std::uint64_t hash = CacheKeyHash{}(key);
  Shard& shard = *shards_[shard_of(hash)];
  util::ReaderLock lock(shard.mu);
  std::size_t slot = 0;
  return shard.find(hash, key, &slot);
}

bool MemoCache::insert(const CacheKey& key, const EvalOutcome& outcome) {
  const std::uint64_t hash = CacheKeyHash{}(key);
  Shard& shard = *shards_[shard_of(hash)];
  util::WriterLock lock(shard.mu);
  return shard.put(hash, key, outcome);
}

void MemoCache::lookup_block(std::span<const CacheKey> keys,
                             std::span<EvalOutcome> outs,
                             std::span<std::uint8_t> hits) const {
  MS_CHECK(outs.size() == keys.size() && hits.size() == keys.size(),
           "lookup_block needs one outcome and hit slot per key");
  // Hash every key once up front (stack buffer for claim-block-sized
  // calls), then visit each shard exactly once.
  std::array<std::uint64_t, kStackHashes> stack;
  std::vector<std::uint64_t> heap;
  std::uint64_t* hashes = stack.data();
  if (keys.size() > kStackHashes) {
    heap.resize(keys.size());
    hashes = heap.data();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = CacheKeyHash{}(keys[i]);
  }
  std::array<std::uint32_t, kStackHashes> order_stack;
  std::vector<std::uint32_t> order_heap;
  std::uint32_t* order = order_stack.data();
  if (keys.size() > kStackHashes) {
    order_heap.resize(keys.size());
    order = order_heap.data();
  }
  std::vector<std::uint32_t> starts;
  group_by_shard(hashes, keys.size(), order, starts);
  std::uint64_t hit_count = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (starts[s] == starts[s + 1]) continue;
    Shard& shard = *shards_[s];
    util::ReaderLock lock(shard.mu);
    for (std::uint32_t j = starts[s]; j < starts[s + 1]; ++j) {
      const std::size_t i = order[j];
      std::size_t slot = 0;
      if (shard.find(hashes[i], keys[i], &slot)) {
        outs[i] = shard.vals[slot];
        hits[i] = 1;
        ++hit_count;
      } else {
        hits[i] = 0;
      }
    }
  }
  hits_.fetch_add(hit_count, std::memory_order_relaxed);
  misses_.fetch_add(keys.size() - hit_count, std::memory_order_relaxed);
}

void MemoCache::insert_block(std::span<const CacheKey> keys,
                             std::span<const EvalOutcome> outs) {
  MS_CHECK(outs.size() == keys.size(),
           "insert_block needs one outcome per key");
  std::array<std::uint64_t, kStackHashes> stack;
  std::vector<std::uint64_t> heap;
  std::uint64_t* hashes = stack.data();
  if (keys.size() > kStackHashes) {
    heap.resize(keys.size());
    hashes = heap.data();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = CacheKeyHash{}(keys[i]);
  }
  std::array<std::uint32_t, kStackHashes> order_stack;
  std::vector<std::uint32_t> order_heap;
  std::uint32_t* order = order_stack.data();
  if (keys.size() > kStackHashes) {
    order_heap.resize(keys.size());
    order = order_heap.data();
  }
  std::vector<std::uint32_t> starts;
  group_by_shard(hashes, keys.size(), order, starts);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (starts[s] == starts[s + 1]) continue;
    Shard& shard = *shards_[s];
    util::WriterLock lock(shard.mu);
    for (std::uint32_t j = starts[s]; j < starts[s + 1]; ++j) {
      const std::size_t i = order[j];
      shard.put(hashes[i], keys[i], outs[i]);
    }
  }
}

// mslint: cold — stats and teardown, called once per report.

std::size_t MemoCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::ReaderLock lock(shard->mu);
    total += shard->used;
  }
  return total;
}

MemoCache::Stats MemoCache::stats() const {
  return Stats{hits_.load(std::memory_order_relaxed),
               misses_.load(std::memory_order_relaxed)};
}

void MemoCache::clear() {
  for (auto& shard : shards_) {
    util::WriterLock lock(shard->mu);
    shard->fps.clear();
    shard->keys.clear();
    shard->vals.clear();
    shard->used = 0;
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace mergescale::explore
