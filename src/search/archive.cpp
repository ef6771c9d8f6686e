#include "search/archive.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "search/byte_codec.hpp"
#include "util/interner.hpp"
#include "util/io_env.hpp"
#include "util/sync.hpp"

namespace mergescale::search {

using namespace bytes;

namespace {

constexpr std::uint32_t kMagic = 0x4143534Du;  // "MSCA" little-endian
constexpr std::uint32_t kVersion = 1;
// Fingerprint of the column set (order, widths, zone/dict shape).  Bump
// together with kVersion whenever the layout changes; readers refuse
// anything else.
constexpr std::uint64_t kSchema = 0x314C4F43'4143534Dull;  // "MSCACOL1"
constexpr std::size_t kHeaderSize = 76;

/// Column order on disk.  Fixed-width arrays, one per column, each
/// covering every row; a block is the same row range of every column.
enum Column : int {
  kColIndex = 0,   // u64 flat job index — the primary sort key
  kColVariant,     // u8  core::ModelVariant
  kColFeasible,    // u8  0/1
  kColFromCache,   // u8  0/1
  kColScenario,    // u32 dictionary id
  kColApp,         // u32 dictionary id
  kColGrowth,      // u32 dictionary id
  kColTopology,    // u32 dictionary id
  kColN,           // f64
  kColR,           // f64
  kColRl,          // f64
  kColCores,       // f64
  kColSpeedup,     // f64
  kColumnCount,
};

constexpr std::array<std::uint32_t, kColumnCount> kColumnWidth = {
    8, 1, 1, 1, 4, 4, 4, 4, 8, 8, 8, 8, 8};

constexpr std::uint64_t row_bytes() {
  std::uint64_t total = 0;
  for (const std::uint32_t width : kColumnWidth) total += width;
  return total;
}

/// Zone-map entry: 2 x u64 index bounds, u32 feasible-row count, then
/// min/max of speedup, cores, n as f64 pairs.
constexpr std::size_t kZoneBytes = 8 + 8 + 4 + 6 * 8;

bool is_finite_record(const explore::EvalResult& r) {
  return std::isfinite(r.n) && std::isfinite(r.r) && std::isfinite(r.rl) &&
         std::isfinite(r.cores) && std::isfinite(r.speedup);
}

/// The canonical result order (explore::better's semantics): speedup
/// descending, ties toward the lower job index.
bool better(double speedup_a, std::uint64_t index_a, double speedup_b,
            std::uint64_t index_b) {
  if (speedup_a != speedup_b) return speedup_a > speedup_b;
  return index_a < index_b;
}

/// Section geometry derived from (rows, block_rows) alone; the header's
/// recorded offsets must agree exactly, so a tampered or truncated
/// header cannot steer reads outside its own sections.
struct Layout {
  std::uint64_t rows = 0;
  std::uint32_t block_rows = 0;
  std::uint32_t blocks = 0;
  std::array<std::uint64_t, kColumnCount> col_off{};  // absolute
  std::uint64_t zones_off = 0;
  std::uint64_t crcs_off = 0;
  std::uint64_t dict_off = 0;

  static Layout make(std::uint64_t rows, std::uint32_t block_rows) {
    Layout lay;
    lay.rows = rows;
    lay.block_rows = block_rows;
    lay.blocks = static_cast<std::uint32_t>(
        block_rows == 0 ? 0 : (rows + block_rows - 1) / block_rows);
    std::uint64_t offset = kHeaderSize;
    for (int col = 0; col < kColumnCount; ++col) {
      lay.col_off[static_cast<std::size_t>(col)] = offset;
      offset += rows * kColumnWidth[static_cast<std::size_t>(col)];
    }
    lay.zones_off = offset;
    lay.crcs_off = lay.zones_off + std::uint64_t{lay.blocks} * kZoneBytes + 4;
    lay.dict_off = lay.crcs_off +
                   std::uint64_t{lay.blocks} * kColumnCount * 4 + 4;
    return lay;
  }

  std::uint64_t rows_in_block(std::uint32_t block) const {
    const std::uint64_t first = std::uint64_t{block} * block_rows;
    return std::min<std::uint64_t>(block_rows, rows - first);
  }

  std::uint64_t slice_off(std::uint32_t block, int col) const {
    return col_off[static_cast<std::size_t>(col)] +
           std::uint64_t{block} * block_rows *
               kColumnWidth[static_cast<std::size_t>(col)];
  }
};

struct Zone {
  std::uint64_t min_index = 0;
  std::uint64_t max_index = 0;
  std::uint32_t feasible_rows = 0;
  double min_speedup = 0.0;
  double max_speedup = 0.0;
  double min_cores = 0.0;
  double max_cores = 0.0;
  double min_n = 0.0;
  double max_n = 0.0;
};

bool zone_admits(const Zone& zone, const ArchivePredicate& p) {
  if (p.feasible_only && zone.feasible_rows == 0) return false;
  if (p.min_speedup && zone.max_speedup < *p.min_speedup) return false;
  if (p.max_speedup && zone.min_speedup > *p.max_speedup) return false;
  if (p.min_cores && zone.max_cores < *p.min_cores) return false;
  if (p.max_cores && zone.min_cores > *p.max_cores) return false;
  if (p.min_n && zone.max_n < *p.min_n) return false;
  if (p.max_n && zone.min_n > *p.max_n) return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

std::string encode_with_stats(const std::vector<explore::EvalResult>& records,
                              std::uint32_t block_rows, ArchiveStats* stats) {
  if (block_rows == 0) {
    throw std::invalid_argument("archive: block_rows must be positive");
  }
  const std::uint64_t rows = records.size();
  const Layout lay = Layout::make(rows, block_rows);

  // Stable index sort: equal indices (possible after cross-directory
  // merges) keep their load order, so the archive reproduces the exact
  // record order a full-scan consumer saw.
  std::vector<std::uint64_t> perm(records.size());
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&records](std::uint64_t a, std::uint64_t b) {
                     return records[static_cast<std::size_t>(a)].index <
                            records[static_cast<std::size_t>(b)].index;
                   });

  // Dictionary ids flow through util::intern — the process-wide
  // interner dedups label strings once; the archive stores a dense
  // remap of the interner ids it saw plus the sidecar name map.
  std::unordered_map<std::uint32_t, std::uint32_t> dense_of_intern;
  std::vector<std::uint32_t> dict_interns;
  const auto dict_id = [&](const std::string& name) {
    const std::uint32_t intern_id = util::intern(name);
    const auto [it, inserted] = dense_of_intern.emplace(
        intern_id, static_cast<std::uint32_t>(dict_interns.size()));
    if (inserted) dict_interns.push_back(intern_id);
    return it->second;
  };

  std::string bytes(lay.dict_off, '\0');
  std::vector<Zone> zones(lay.blocks);
  std::uint64_t feasible_total = 0;

  for (std::uint64_t i = 0; i < rows; ++i) {
    const explore::EvalResult& r = records[static_cast<std::size_t>(perm[i])];
    // Mirror the log loaders' non-finite convention: keep the design
    // point, archive it as infeasible with cores/speedup zeroed.
    const bool finite = is_finite_record(r);
    const bool feasible = finite && r.feasible;
    const double cores = finite ? r.cores : 0.0;
    const double speedup = finite ? r.speedup : 0.0;

    const auto slot = [&](int col) {
      return bytes.data() + lay.col_off[static_cast<std::size_t>(col)] +
             i * kColumnWidth[static_cast<std::size_t>(col)];
    };
    poke_u64(slot(kColIndex), r.index);
    *slot(kColVariant) = static_cast<char>(r.variant);
    *slot(kColFeasible) = static_cast<char>(feasible ? 1 : 0);
    *slot(kColFromCache) = static_cast<char>(r.from_cache ? 1 : 0);
    poke_u32(slot(kColScenario), dict_id(r.scenario));
    poke_u32(slot(kColApp), dict_id(r.app));
    poke_u32(slot(kColGrowth), dict_id(r.growth));
    poke_u32(slot(kColTopology), dict_id(r.topology));
    poke_f64(slot(kColN), r.n);
    poke_f64(slot(kColR), r.r);
    poke_f64(slot(kColRl), r.rl);
    poke_f64(slot(kColCores), cores);
    poke_f64(slot(kColSpeedup), speedup);

    Zone& zone = zones[static_cast<std::size_t>(i / block_rows)];
    const bool first_in_block = i % block_rows == 0;
    if (first_in_block) {
      zone.min_index = zone.max_index = r.index;
      zone.min_speedup = zone.max_speedup = speedup;
      zone.min_cores = zone.max_cores = cores;
      // n can legitimately be non-finite in a kept-but-infeasible
      // record; such rows never match an n bound, so the zone tracks
      // finite values only (an empty range prunes against any bound).
      zone.min_n = std::numeric_limits<double>::infinity();
      zone.max_n = -std::numeric_limits<double>::infinity();
    } else {
      zone.min_index = std::min(zone.min_index, std::uint64_t{r.index});
      zone.max_index = std::max(zone.max_index, std::uint64_t{r.index});
      zone.min_speedup = std::min(zone.min_speedup, speedup);
      zone.max_speedup = std::max(zone.max_speedup, speedup);
      zone.min_cores = std::min(zone.min_cores, cores);
      zone.max_cores = std::max(zone.max_cores, cores);
    }
    if (std::isfinite(r.n)) {
      zone.min_n = std::min(zone.min_n, r.n);
      zone.max_n = std::max(zone.max_n, r.n);
    }
    if (feasible) {
      ++zone.feasible_rows;
      ++feasible_total;
    }
  }

  // Zone-map section (+ section CRC).
  for (std::uint32_t b = 0; b < lay.blocks; ++b) {
    const Zone& zone = zones[b];
    char* p = bytes.data() + lay.zones_off + std::uint64_t{b} * kZoneBytes;
    poke_u64(p, zone.min_index);
    poke_u64(p + 8, zone.max_index);
    poke_u32(p + 16, zone.feasible_rows);
    poke_f64(p + 20, zone.min_speedup);
    poke_f64(p + 28, zone.max_speedup);
    poke_f64(p + 36, zone.min_cores);
    poke_f64(p + 44, zone.max_cores);
    poke_f64(p + 52, zone.min_n);
    poke_f64(p + 60, zone.max_n);
  }
  const std::uint64_t zones_size = std::uint64_t{lay.blocks} * kZoneBytes;
  poke_u32(bytes.data() + lay.zones_off + zones_size,
           crc32(bytes.data() + lay.zones_off,
                 static_cast<std::size_t>(zones_size)));

  // Per-(block, column) slice CRCs (+ section CRC).
  for (std::uint32_t b = 0; b < lay.blocks; ++b) {
    for (int col = 0; col < kColumnCount; ++col) {
      const std::uint64_t size =
          lay.rows_in_block(b) * kColumnWidth[static_cast<std::size_t>(col)];
      const std::uint32_t crc = crc32(bytes.data() + lay.slice_off(b, col),
                                      static_cast<std::size_t>(size));
      poke_u32(bytes.data() + lay.crcs_off +
                   (std::uint64_t{b} * kColumnCount +
                    static_cast<std::uint32_t>(col)) *
                       4,
               crc);
    }
  }
  const std::uint64_t crcs_size = std::uint64_t{lay.blocks} * kColumnCount * 4;
  poke_u32(
      bytes.data() + lay.crcs_off + crcs_size,
      crc32(bytes.data() + lay.crcs_off, static_cast<std::size_t>(crcs_size)));

  // Dictionary section (+ section CRC).
  std::string dict;
  put_u32(dict, static_cast<std::uint32_t>(dict_interns.size()));
  for (const std::uint32_t intern_id : dict_interns) {
    const std::string& name = util::interned_name(intern_id);
    put_u32(dict, static_cast<std::uint32_t>(name.size()));
    dict += name;
  }
  put_u32(dict, crc32(dict));
  bytes += dict;

  // Header, CRC'd over everything before its own trailing CRC.
  std::string header;
  header.reserve(kHeaderSize);
  put_u32(header, kMagic);
  put_u32(header, kVersion);
  put_u64(header, kSchema);
  put_u64(header, rows);
  put_u64(header, feasible_total);
  put_u32(header, block_rows);
  put_u32(header, lay.blocks);
  put_u64(header, lay.zones_off);
  put_u64(header, lay.crcs_off);
  put_u64(header, lay.dict_off);
  put_u64(header, bytes.size());
  put_u32(header, crc32(header));
  std::memcpy(bytes.data(), header.data(), kHeaderSize);

  if (stats != nullptr) {
    stats->rows = rows;
    stats->feasible_rows = feasible_total;
    stats->block_rows = block_rows;
    stats->blocks = lay.blocks;
    stats->dict_entries = static_cast<std::uint32_t>(dict_interns.size());
    stats->bytes = bytes.size();
  }
  return bytes;
}

void check_io(const util::IoResult& result, const char* what,
              const std::string& path) {
  if (!result.ok()) {
    throw std::runtime_error("archive: " + std::string(what) + " " + path +
                             " failed: " + result.message);
  }
}

}  // namespace

std::string encode_archive(const std::vector<explore::EvalResult>& records,
                           std::uint32_t block_rows) {
  return encode_with_stats(records, block_rows, nullptr);
}

ArchiveStats write_archive(const std::string& path,
                           const std::vector<explore::EvalResult>& records,
                           std::uint32_t block_rows) {
  ArchiveStats stats;
  const std::string bytes = encode_with_stats(records, block_rows, &stats);
  util::IoEnv& env = util::io_env();
  const std::string tmp = path + ".tmp";
  std::unique_ptr<util::WritableFile> out;
  check_io(env.new_writable(tmp, /*truncate=*/true, &out), "open", tmp);
  try {
    check_io(out->append(bytes), "write to", tmp);
    check_io(out->flush(), "flush", tmp);
    check_io(out->sync(), "fsync", tmp);
    check_io(out->close(), "close", tmp);
    check_io(env.rename_file(tmp, path), "rename", tmp);
  } catch (...) {
    // Best effort: never leave a half-written temp behind a throw.
    (void)env.remove_file(tmp);
    throw;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct ArchiveReader::Impl {
  std::string name;  ///< path, or a label for in-memory archives
  std::unique_ptr<util::RandomAccessFile> file;  ///< null when in-memory
  std::string buffer;                            ///< in-memory bytes
  Layout lay;
  std::uint64_t feasible = 0;
  std::uint64_t file_size = 0;
  std::vector<Zone> zones;
  std::vector<std::uint32_t> slice_crcs;  ///< block * kColumnCount + col
  std::vector<std::string> names;         ///< dense dictionary
  /// Lazy slice validation: 0 = unchecked, 1 = CRC verified.  Checking
  /// is idempotent, so racing verifications are harmless.
  std::unique_ptr<std::atomic<std::uint8_t>[]> validated;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("archive: " + name + ": " + what);
  }

  /// Raw bytes at [offset, offset+count); throws on any shortfall.
  std::string_view read_exact(std::uint64_t offset, std::size_t count,
                              std::string* scratch) const {
    if (file == nullptr) {
      if (offset > buffer.size() || count > buffer.size() - offset) {
        fail("truncated (read past end of archive)");
      }
      return std::string_view(buffer).substr(static_cast<std::size_t>(offset),
                                             count);
    }
    std::string_view out;
    const util::IoResult result = file->read(offset, count, &out, scratch);
    if (!result.ok()) fail("read failed: " + result.message);
    if (out.size() != count) fail("truncated (read past end of archive)");
    return out;
  }

  /// One column's bytes for one block, CRC-verified on first touch.
  std::string_view slice(std::uint32_t block, int col,
                         std::string* scratch) const {
    const std::uint64_t size =
        lay.rows_in_block(block) * kColumnWidth[static_cast<std::size_t>(col)];
    const std::string_view bytes = read_exact(
        lay.slice_off(block, col), static_cast<std::size_t>(size), scratch);
    std::atomic<std::uint8_t>& flag =
        validated[std::uint64_t{block} * kColumnCount +
                  static_cast<std::uint32_t>(col)];
    if (flag.load(std::memory_order_acquire) == 0) {
      if (crc32(bytes) !=
          slice_crcs[static_cast<std::size_t>(
              std::uint64_t{block} * kColumnCount +
              static_cast<std::uint32_t>(col))]) {
        fail("block " + std::to_string(block) + " column " +
             std::to_string(col) +
             " failed its CRC; refusing to serve corrupt data");
      }
      flag.store(1, std::memory_order_release);
    }
    return bytes;
  }

  /// Materializes the given block-local rows (ascending or not — output
  /// preserves the given order), appending to `out`.
  void materialize(std::uint32_t block, const std::vector<std::uint32_t>& local,
                   std::vector<explore::EvalResult>* out) const {
    if (local.empty()) return;
    std::array<std::string, kColumnCount> scratch;
    std::array<std::string_view, kColumnCount> cols;
    for (int col = 0; col < kColumnCount; ++col) {
      cols[static_cast<std::size_t>(col)] =
          slice(block, col, &scratch[static_cast<std::size_t>(col)]);
    }
    for (const std::uint32_t i : local) {
      explore::EvalResult r;
      r.index = static_cast<std::size_t>(
          get_u64(cols[kColIndex].data() + std::uint64_t{i} * 8));
      const auto variant =
          static_cast<unsigned char>(cols[kColVariant][i]);
      if (variant >
          static_cast<unsigned char>(core::ModelVariant::kAsymmetricComm)) {
        fail("block " + std::to_string(block) +
             " holds an unknown model-variant id");
      }
      r.variant = static_cast<core::ModelVariant>(variant);
      r.feasible = static_cast<unsigned char>(cols[kColFeasible][i]) != 0;
      r.from_cache = static_cast<unsigned char>(cols[kColFromCache][i]) != 0;
      const auto label = [&](int col) -> const std::string& {
        const std::uint32_t id = get_u32(
            cols[static_cast<std::size_t>(col)].data() + std::uint64_t{i} * 4);
        if (id >= names.size()) {
          fail("block " + std::to_string(block) +
               " references a dictionary entry the archive does not hold");
        }
        return names[id];
      };
      r.scenario = label(kColScenario);
      r.app = label(kColApp);
      r.growth = label(kColGrowth);
      r.topology = label(kColTopology);
      r.n = get_f64(cols[kColN].data() + std::uint64_t{i} * 8);
      r.r = get_f64(cols[kColR].data() + std::uint64_t{i} * 8);
      r.rl = get_f64(cols[kColRl].data() + std::uint64_t{i} * 8);
      r.cores = get_f64(cols[kColCores].data() + std::uint64_t{i} * 8);
      r.speedup = get_f64(cols[kColSpeedup].data() + std::uint64_t{i} * 8);
      out->push_back(std::move(r));
    }
  }

  /// Materializes one global row.
  explore::EvalResult row(std::uint64_t row_id) const {
    std::vector<explore::EvalResult> one;
    materialize(static_cast<std::uint32_t>(row_id / lay.block_rows),
                {static_cast<std::uint32_t>(row_id % lay.block_rows)}, &one);
    return std::move(one.front());
  }

  /// Validates the header and eagerly-loaded sections (zone maps, slice
  /// CRCs, dictionary).  Column data is validated lazily per slice.
  void parse();

  /// find()'s table, open addressing over a power-of-two slot count:
  /// each slot holds (hash >> 32) << 32 | (row + 1), 0 when empty.
  /// Written once under key_mu, published by key_built.
  mutable util::Mutex key_mu;
  mutable std::atomic<bool> key_built{false};
  mutable std::vector<std::uint64_t> key_slots;
  mutable std::atomic<double> key_ms{0.0};

  /// Fills key_slots from the variant/label/n/r/rl columns.
  void build_key_table() const;
};

void ArchiveReader::Impl::build_key_table() const {
  const auto start = std::chrono::steady_clock::now();
  if (lay.rows >= 0xFFFFFFFFull) fail("too many rows for a point-lookup table");
  std::vector<std::uint64_t> label_hash(names.size());
  for (std::size_t id = 0; id < names.size(); ++id) {
    label_hash[id] = DesignKeyHash::label(names[id]);
  }
  const std::uint64_t mask =
      std::bit_ceil(std::max<std::uint64_t>(16, lay.rows * 2)) - 1;
  std::vector<std::uint64_t> slots(static_cast<std::size_t>(mask + 1), 0);
  std::array<std::string, 7> scratch;
  for (std::uint32_t b = 0; b < lay.blocks; ++b) {
    const std::string_view variant = slice(b, kColVariant, &scratch[0]);
    const std::string_view app = slice(b, kColApp, &scratch[1]);
    const std::string_view growth = slice(b, kColGrowth, &scratch[2]);
    const std::string_view topology = slice(b, kColTopology, &scratch[3]);
    const std::string_view n = slice(b, kColN, &scratch[4]);
    const std::string_view r = slice(b, kColR, &scratch[5]);
    const std::string_view rl = slice(b, kColRl, &scratch[6]);
    const std::uint64_t rows_in = lay.rows_in_block(b);
    const std::uint64_t first_row = std::uint64_t{b} * lay.block_rows;
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      const auto label = [&](std::string_view column) {
        const std::uint32_t id = get_u32(column.data() + i * 4);
        if (id >= names.size()) {
          fail("block " + std::to_string(b) +
               " references a dictionary entry the archive does not hold");
        }
        return label_hash[id];
      };
      const std::uint64_t hash = DesignKeyHash::combine(
          static_cast<core::ModelVariant>(
              static_cast<unsigned char>(variant[i])),
          get_f64(n.data() + i * 8), get_f64(r.data() + i * 8),
          get_f64(rl.data() + i * 8), label(app), label(growth),
          label(topology));
      std::uint64_t at = hash & mask;
      while (slots[at] != 0) at = (at + 1) & mask;
      slots[at] = (hash >> 32 << 32) | (first_row + i + 1);
    }
  }
  key_slots = std::move(slots);
  key_ms.store(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count());
}

void ArchiveReader::Impl::parse() {
  Impl& impl = *this;
  std::string scratch;
  const std::uint64_t actual_size =
      impl.file != nullptr ? impl.file->size() : impl.buffer.size();
  if (actual_size < kHeaderSize) {
    impl.fail("not a mergescale columnar archive (file too small)");
  }
  const std::string_view header = impl.read_exact(0, kHeaderSize, &scratch);
  if (get_u32(header.data()) != kMagic) {
    impl.fail("not a mergescale columnar archive");
  }
  if (get_u32(header.data() + 4) != kVersion ||
      get_u64(header.data() + 8) != kSchema) {
    impl.fail(
        "written under a different format version/schema; refusing to read "
        "it (re-archive with a matching build)");
  }
  if (get_u32(header.data() + 72) != crc32(header.substr(0, 72))) {
    impl.fail("header failed its CRC");
  }
  const std::uint64_t rows = get_u64(header.data() + 16);
  impl.feasible = get_u64(header.data() + 24);
  const std::uint32_t block_rows = get_u32(header.data() + 32);
  const std::uint32_t blocks = get_u32(header.data() + 36);
  const std::uint64_t zones_off = get_u64(header.data() + 40);
  const std::uint64_t crcs_off = get_u64(header.data() + 48);
  const std::uint64_t dict_off = get_u64(header.data() + 56);
  impl.file_size = get_u64(header.data() + 64);

  if (block_rows == 0) impl.fail("header is inconsistent (zero block rows)");
  impl.lay = Layout::make(rows, block_rows);
  if (blocks != impl.lay.blocks || zones_off != impl.lay.zones_off ||
      crcs_off != impl.lay.crcs_off || dict_off != impl.lay.dict_off ||
      impl.feasible > rows) {
    impl.fail("header is inconsistent with its own geometry");
  }
  if (impl.file_size != actual_size || impl.file_size < dict_off + 8) {
    impl.fail("truncated (size does not match the header)");
  }

  // Zone maps.
  const std::uint64_t zones_size = std::uint64_t{blocks} * kZoneBytes;
  {
    const std::string_view section = impl.read_exact(
        zones_off, static_cast<std::size_t>(zones_size) + 4, &scratch);
    if (get_u32(section.data() + zones_size) !=
        crc32(section.substr(0, static_cast<std::size_t>(zones_size)))) {
      impl.fail("zone maps failed their CRC");
    }
    impl.zones.resize(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const char* p = section.data() + std::uint64_t{b} * kZoneBytes;
      Zone& zone = impl.zones[b];
      zone.min_index = get_u64(p);
      zone.max_index = get_u64(p + 8);
      zone.feasible_rows = get_u32(p + 16);
      zone.min_speedup = get_f64(p + 20);
      zone.max_speedup = get_f64(p + 28);
      zone.min_cores = get_f64(p + 36);
      zone.max_cores = get_f64(p + 44);
      zone.min_n = get_f64(p + 52);
      zone.max_n = get_f64(p + 60);
      if (zone.feasible_rows > impl.lay.rows_in_block(b)) {
        impl.fail("zone map is inconsistent with the block geometry");
      }
    }
  }

  // Per-slice CRC table.
  const std::uint64_t crcs_size = std::uint64_t{blocks} * kColumnCount * 4;
  {
    const std::string_view section = impl.read_exact(
        crcs_off, static_cast<std::size_t>(crcs_size) + 4, &scratch);
    if (get_u32(section.data() + crcs_size) !=
        crc32(section.substr(0, static_cast<std::size_t>(crcs_size)))) {
      impl.fail("block CRC table failed its CRC");
    }
    impl.slice_crcs.resize(static_cast<std::size_t>(crcs_size / 4));
    for (std::size_t i = 0; i < impl.slice_crcs.size(); ++i) {
      impl.slice_crcs[i] = get_u32(section.data() + i * 4);
    }
  }

  // Dictionary.
  {
    const std::uint64_t dict_size = impl.file_size - dict_off;
    const std::string_view section = impl.read_exact(
        dict_off, static_cast<std::size_t>(dict_size), &scratch);
    if (get_u32(section.data() + section.size() - 4) !=
        crc32(section.substr(0, section.size() - 4))) {
      impl.fail("dictionary failed its CRC");
    }
    const std::string_view entries = section.substr(4, section.size() - 8);
    const std::uint32_t count = get_u32(section.data());
    impl.names.reserve(count);
    std::size_t cursor = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (entries.size() - cursor < 4) impl.fail("dictionary is malformed");
      const std::uint32_t len = get_u32(entries.data() + cursor);
      cursor += 4;
      if (entries.size() - cursor < len) impl.fail("dictionary is malformed");
      impl.names.emplace_back(entries.substr(cursor, len));
      // Pin the name in the process interner: materialized records and
      // live evaluations then agree on label identity for free.
      util::intern(impl.names.back());
      cursor += len;
    }
    if (cursor != entries.size()) impl.fail("dictionary is malformed");
  }

  impl.validated = std::make_unique<std::atomic<std::uint8_t>[]>(
      std::uint64_t{blocks} * kColumnCount);
}

ArchiveReader::ArchiveReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ArchiveReader::~ArchiveReader() = default;
ArchiveReader::ArchiveReader(ArchiveReader&&) noexcept = default;
ArchiveReader& ArchiveReader::operator=(ArchiveReader&&) noexcept = default;

ArchiveReader ArchiveReader::open(const std::string& path) {
  auto impl = std::make_unique<Impl>();
  impl->name = path;
  const util::IoResult result =
      util::io_env().new_random_access(path, &impl->file);
  if (!result.ok()) {
    throw std::runtime_error("archive: open " + path +
                             " failed: " + result.message);
  }
  impl->parse();
  return ArchiveReader(std::move(impl));
}

ArchiveReader ArchiveReader::from_records(
    const std::vector<explore::EvalResult>& records,
    std::uint32_t block_rows) {
  return from_buffer(encode_archive(records, block_rows), "<records>");
}

ArchiveReader ArchiveReader::from_buffer(std::string bytes, std::string name) {
  auto impl = std::make_unique<Impl>();
  impl->name = std::move(name);
  impl->buffer = std::move(bytes);
  impl->parse();
  return ArchiveReader(std::move(impl));
}

std::uint64_t ArchiveReader::row_count() const noexcept {
  return impl_->lay.rows;
}

std::uint64_t ArchiveReader::feasible_count() const noexcept {
  return impl_->feasible;
}

ArchiveStats ArchiveReader::stats() const noexcept {
  ArchiveStats stats;
  stats.rows = impl_->lay.rows;
  stats.feasible_rows = impl_->feasible;
  stats.block_rows = impl_->lay.block_rows;
  stats.blocks = impl_->lay.blocks;
  stats.dict_entries = static_cast<std::uint32_t>(impl_->names.size());
  stats.bytes = impl_->file_size;
  return stats;
}

std::optional<explore::EvalResult> ArchiveReader::best() const {
  std::vector<explore::EvalResult> one = top_k(1);
  if (one.empty()) return std::nullopt;
  return std::move(one.front());
}

std::vector<explore::EvalResult> ArchiveReader::top_k(std::size_t k) const {
  const Impl& impl = *impl_;
  std::vector<explore::EvalResult> out;
  if (k == 0 || impl.feasible == 0) return out;

  // Candidate selection never materializes records: it scans the
  // feasible/speedup/index columns of blocks visited in descending zone
  // max-speedup, stopping once no remaining block can displace the
  // current k-th best.
  struct Cand {
    double speedup = 0.0;
    std::uint64_t index = 0;
    std::uint64_t row = 0;
  };
  const auto cand_better = [](const Cand& a, const Cand& b) {
    return better(a.speedup, a.index, b.speedup, b.index);
  };

  std::vector<std::uint32_t> order;
  order.reserve(impl.zones.size());
  for (std::uint32_t b = 0; b < impl.zones.size(); ++b) {
    if (impl.zones[b].feasible_rows > 0) order.push_back(b);
  }
  std::sort(order.begin(), order.end(),
            [&impl](std::uint32_t a, std::uint32_t b) {
              if (impl.zones[a].max_speedup != impl.zones[b].max_speedup) {
                return impl.zones[a].max_speedup > impl.zones[b].max_speedup;
              }
              return a < b;
            });

  // `kept` is a heap with the WORST kept candidate on top (cand_better
  // as the strict weak order makes the heap's max the least-good).
  std::vector<Cand> kept;
  kept.reserve(std::min<std::size_t>(k, 1024));
  std::string feas_scratch, speedup_scratch, index_scratch;
  for (const std::uint32_t b : order) {
    if (kept.size() == k &&
        impl.zones[b].max_speedup < kept.front().speedup) {
      break;  // nothing below this zone ceiling can displace the k-th
    }
    const std::string_view feas = impl.slice(b, kColFeasible, &feas_scratch);
    const std::string_view speedup =
        impl.slice(b, kColSpeedup, &speedup_scratch);
    const std::string_view index = impl.slice(b, kColIndex, &index_scratch);
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    const std::uint64_t first_row = std::uint64_t{b} * impl.lay.block_rows;
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      if (static_cast<unsigned char>(feas[i]) == 0) continue;
      const Cand cand{get_f64(speedup.data() + i * 8),
                      get_u64(index.data() + i * 8), first_row + i};
      if (kept.size() < k) {
        kept.push_back(cand);
        std::push_heap(kept.begin(), kept.end(), cand_better);
      } else if (cand_better(cand, kept.front())) {
        std::pop_heap(kept.begin(), kept.end(), cand_better);
        kept.back() = cand;
        std::push_heap(kept.begin(), kept.end(), cand_better);
      }
    }
  }

  std::sort(kept.begin(), kept.end(), cand_better);
  out.reserve(kept.size());
  for (const Cand& cand : kept) out.push_back(impl.row(cand.row));
  return out;
}

std::vector<explore::EvalResult> ArchiveReader::pareto(
    explore::CostMetric metric) const {
  const Impl& impl = *impl_;

  // Project feasible rows to (row, cost, speedup, index) — 32 bytes per
  // point, never the records — then run exactly the reference frontier
  // walk (stable cost-ascending sort, one rep per cost, strictly
  // increasing speedup) so the output is byte-identical to
  // explore::pareto_frontier over the same records.
  struct Point {
    std::uint64_t row = 0;
    double cost = 0.0;
    double speedup = 0.0;
    std::uint64_t index = 0;
  };
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(impl.feasible));
  std::string feas_scratch, speedup_scratch, index_scratch, cost_a_scratch,
      cost_b_scratch;
  for (std::uint32_t b = 0; b < impl.zones.size(); ++b) {
    if (impl.zones[b].feasible_rows == 0) continue;
    const std::string_view feas = impl.slice(b, kColFeasible, &feas_scratch);
    const std::string_view speedup =
        impl.slice(b, kColSpeedup, &speedup_scratch);
    const std::string_view index = impl.slice(b, kColIndex, &index_scratch);
    std::string_view cost_a, cost_b;
    if (metric == explore::CostMetric::kCoreArea) {
      cost_a = impl.slice(b, kColR, &cost_a_scratch);
      cost_b = impl.slice(b, kColRl, &cost_b_scratch);
    } else {
      cost_a = impl.slice(b, kColCores, &cost_a_scratch);
    }
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    const std::uint64_t first_row = std::uint64_t{b} * impl.lay.block_rows;
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      if (static_cast<unsigned char>(feas[i]) == 0) continue;
      const double cost =
          metric == explore::CostMetric::kCoreArea
              ? std::max(get_f64(cost_a.data() + i * 8),
                         get_f64(cost_b.data() + i * 8))
              : get_f64(cost_a.data() + i * 8);
      points.push_back({first_row + i, cost, get_f64(speedup.data() + i * 8),
                        get_u64(index.data() + i * 8)});
    }
  }

  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return better(a.speedup, a.index, b.speedup, b.index);
                   });

  std::vector<Point> frontier;
  double last_cost = 0.0;
  for (const Point& point : points) {
    if (!frontier.empty() && point.cost == last_cost) continue;
    if (frontier.empty() || point.speedup > frontier.back().speedup) {
      frontier.push_back(point);
      last_cost = point.cost;
    }
  }

  std::vector<explore::EvalResult> out;
  out.reserve(frontier.size());
  for (const Point& point : frontier) out.push_back(impl.row(point.row));
  return out;
}

std::vector<explore::EvalResult> ArchiveReader::query(
    const ArchivePredicate& predicate) const {
  const Impl& impl = *impl_;
  std::vector<explore::EvalResult> out;
  std::array<std::string, 4> scratch;
  std::vector<std::uint32_t> matches;
  for (std::uint32_t b = 0; b < impl.zones.size(); ++b) {
    if (!zone_admits(impl.zones[b], predicate)) continue;
    const std::string_view feas =
        predicate.feasible_only ? impl.slice(b, kColFeasible, &scratch[0])
                                : std::string_view();
    const std::string_view speedup =
        predicate.min_speedup || predicate.max_speedup
            ? impl.slice(b, kColSpeedup, &scratch[1])
            : std::string_view();
    const std::string_view cores =
        predicate.min_cores || predicate.max_cores
            ? impl.slice(b, kColCores, &scratch[2])
            : std::string_view();
    const std::string_view n = predicate.min_n || predicate.max_n
                                   ? impl.slice(b, kColN, &scratch[3])
                                   : std::string_view();
    matches.clear();
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      if (!feas.empty() && static_cast<unsigned char>(feas[i]) == 0) continue;
      if (!speedup.empty()) {
        const double value = get_f64(speedup.data() + i * 8);
        if (predicate.min_speedup && !(value >= *predicate.min_speedup)) {
          continue;
        }
        if (predicate.max_speedup && !(value <= *predicate.max_speedup)) {
          continue;
        }
      }
      if (!cores.empty()) {
        const double value = get_f64(cores.data() + i * 8);
        if (predicate.min_cores && !(value >= *predicate.min_cores)) continue;
        if (predicate.max_cores && !(value <= *predicate.max_cores)) continue;
      }
      if (!n.empty()) {
        const double value = get_f64(n.data() + i * 8);
        if (predicate.min_n && !(value >= *predicate.min_n)) continue;
        if (predicate.max_n && !(value <= *predicate.max_n)) continue;
      }
      matches.push_back(static_cast<std::uint32_t>(i));
    }
    impl.materialize(b, matches, &out);
  }
  return out;
}

std::uint32_t ArchiveReader::candidate_blocks(
    const ArchivePredicate& predicate) const {
  std::uint32_t count = 0;
  for (const Zone& zone : impl_->zones) {
    if (zone_admits(zone, predicate)) ++count;
  }
  return count;
}

std::vector<explore::EvalResult> ArchiveReader::load_index_range(
    std::uint64_t begin, std::uint64_t end) const {
  const Impl& impl = *impl_;
  std::vector<explore::EvalResult> out;
  if (begin >= end) return out;
  std::string index_scratch;
  std::vector<std::uint32_t> matches;
  for (std::uint32_t b = 0; b < impl.zones.size(); ++b) {
    if (impl.zones[b].max_index < begin || impl.zones[b].min_index >= end) {
      continue;
    }
    const std::string_view index = impl.slice(b, kColIndex, &index_scratch);
    matches.clear();
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      const std::uint64_t value = get_u64(index.data() + i * 8);
      if (value >= begin && value < end) {
        matches.push_back(static_cast<std::uint32_t>(i));
      }
    }
    impl.materialize(b, matches, &out);
  }
  return out;
}

std::optional<explore::EvalResult> ArchiveReader::find(
    const DesignKey& key) const {
  const Impl& impl = *impl_;
  if (!impl.key_built.load(std::memory_order_acquire)) {
    util::MutexLock lock(impl.key_mu);
    if (!impl.key_built.load(std::memory_order_relaxed)) {
      impl.build_key_table();  // a throw leaves the table unbuilt
      impl.key_built.store(true, std::memory_order_release);
    }
  }
  // Linear probing never deletes, so equal keys sit in row order along
  // one probe sequence: the first verified match is the first row.
  const std::uint64_t hash = DesignKeyHash{}(key);
  const std::uint64_t mask = impl.key_slots.size() - 1;
  for (std::uint64_t at = hash & mask;; at = (at + 1) & mask) {
    const std::uint64_t slot = impl.key_slots[at];
    if (slot == 0) return std::nullopt;
    if (slot >> 32 != hash >> 32) continue;
    explore::EvalResult row = impl.row((slot & 0xFFFFFFFFull) - 1);
    if (DesignKey::of(row) == key) return row;
  }
}

double ArchiveReader::key_table_ms() const noexcept {
  return impl_->key_ms.load(std::memory_order_relaxed);
}

std::vector<explore::EvalResult> ArchiveReader::load_all() const {
  const Impl& impl = *impl_;
  std::vector<explore::EvalResult> out;
  out.reserve(static_cast<std::size_t>(impl.lay.rows));
  std::vector<std::uint32_t> all;
  for (std::uint32_t b = 0; b < impl.lay.blocks; ++b) {
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    all.resize(static_cast<std::size_t>(rows_in));
    std::iota(all.begin(), all.end(), std::uint32_t{0});
    impl.materialize(b, all, &out);
  }
  return out;
}

}  // namespace mergescale::search
