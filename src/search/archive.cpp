#include "search/archive.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "explore/report.hpp"
#include "search/byte_codec.hpp"
#include "util/io_env.hpp"
#include "util/sync.hpp"

namespace mergescale::search {

using namespace bytes;

namespace {

constexpr std::uint32_t kMagic = 0x4143534Du;  // "MSCA" little-endian
// Version 2: a record's index is its canonical flat index
// (search::SearchSpace::canonical).  Version 1 archives numbered an
// unsharded sweep by expansion order and adaptive records by batch slot.
constexpr std::uint32_t kVersion = 2;
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

/// One block's zone-map entry.  The writer fills every field; readers
/// use only the index bounds, the feasible-row count and max_speedup.
/// min_speedup and the cores and n bounds are format-v2 bytes that no
/// reader uses.
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

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Dense dictionary ids for the four label columns, assigned in
/// first-seen order.  Neighbouring rows mostly repeat their labels, so
/// lookups keep a Recent memo of the last label per column and only a
/// change pays for a hash lookup.
class LabelDict {
 public:
  struct Last {
    const std::string* name = nullptr;
    std::uint32_t id = 0;
  };
  /// One thread's memo of the last label it resolved per label column.
  using Recent = std::array<Last, kColTopology - kColScenario + 1>;

  /// Gives `name` the next id unless it has one.
  void add(const std::string& name) {
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.push_back(&it->first);
  }

  /// Adds the labels of rows [begin, end) of `row`, in row order.
  template <typename Row>
  void add_rows(const Row& row, std::uint64_t begin, std::uint64_t end) {
    std::array<const std::string*, kColTopology - kColScenario + 1> last{};
    const auto see = [&](int col, const std::string& name) {
      const std::string*& seen =
          last[static_cast<std::size_t>(col - kColScenario)];
      if (seen == nullptr || *seen != name) {
        add(name);
        seen = &name;
      }
    };
    for (std::uint64_t i = begin; i < end; ++i) {
      const explore::EvalResult& r = row(i);
      see(kColScenario, r.scenario);
      see(kColApp, r.app);
      see(kColGrowth, r.growth);
      see(kColTopology, r.topology);
    }
  }

  /// Adds `other`'s names in its id order: merging the dictionaries of
  /// consecutive row ranges in range order gives the first-seen ids of
  /// the whole.
  void merge(const LabelDict& other) {
    for (const std::string* name : other.names_) add(*name);
  }

  /// The id add() gave `name`.  Const, so a team's workers share one
  /// dictionary, each with its own Recent.
  std::uint32_t id(int col, const std::string& name, Recent& recent) const {
    Last& last = recent[static_cast<std::size_t>(col - kColScenario)];
    if (last.name == nullptr || *last.name != name) {
      last = {&name, ids_.find(name)->second};
    }
    return last.id;
  }

  std::uint32_t entries() const {
    return static_cast<std::uint32_t>(names_.size());
  }

  /// The dictionary section: entry count, length-prefixed names in id
  /// order, section CRC.
  std::string encode() const {
    std::string out;
    put_u32(out, entries());
    for (const std::string* name : names_) {
      put_u32(out, static_cast<std::uint32_t>(name->size()));
      out += *name;
    }
    put_u32(out, crc32(out));
    return out;
  }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<const std::string*> names_;  ///< keys of ids_, in id order
};

/// Fills block `b` of every column from `row(i)` (records in archive
/// order), then its zone and its slice CRCs.  Blocks touch disjoint
/// bytes, so a team fills them concurrently.
template <typename Row>
void fill_block(std::uint32_t b, const Layout& lay, const LabelDict& dict,
                const Row& row, char* bytes, Zone& zone,
                LabelDict::Recent& recent) {
  const std::uint64_t first = std::uint64_t{b} * lay.block_rows;
  const std::uint64_t last = first + lay.rows_in_block(b);
  for (std::uint64_t i = first; i < last; ++i) {
    const explore::EvalResult& r = row(i);
    const auto [feasible, cores, speedup] = stored_outcome(r);

    const auto slot = [&](int col) {
      return bytes + lay.col_off[static_cast<std::size_t>(col)] +
             i * kColumnWidth[static_cast<std::size_t>(col)];
    };
    poke_u64(slot(kColIndex), r.index);
    *slot(kColVariant) = static_cast<char>(r.variant);
    *slot(kColFeasible) = static_cast<char>(feasible ? 1 : 0);
    *slot(kColFromCache) = static_cast<char>(r.from_cache ? 1 : 0);
    poke_u32(slot(kColScenario), dict.id(kColScenario, r.scenario, recent));
    poke_u32(slot(kColApp), dict.id(kColApp, r.app, recent));
    poke_u32(slot(kColGrowth), dict.id(kColGrowth, r.growth, recent));
    poke_u32(slot(kColTopology), dict.id(kColTopology, r.topology, recent));
    poke_f64(slot(kColN), r.n);
    poke_f64(slot(kColR), r.r);
    poke_f64(slot(kColRl), r.rl);
    poke_f64(slot(kColCores), cores);
    poke_f64(slot(kColSpeedup), speedup);

    if (i == first) {
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
    if (feasible) ++zone.feasible_rows;
  }

  for (int col = 0; col < kColumnCount; ++col) {
    const std::uint64_t size =
        lay.rows_in_block(b) * kColumnWidth[static_cast<std::size_t>(col)];
    const std::uint32_t crc =
        crc32(bytes + lay.slice_off(b, col), static_cast<std::size_t>(size));
    poke_u32(bytes + lay.crcs_off +
                 (std::uint64_t{b} * kColumnCount +
                  static_cast<std::uint32_t>(col)) *
                     4,
             crc);
  }
}

/// Encodes `records` into a buffer `alloc(size)` returns (anything
/// with data(); every byte of it is written, so it need not be
/// zeroed) and returns the buffer.  The label dictionary is collected
/// and the blocks are filled on `team`.
template <typename Alloc>
auto encode_with(const std::vector<explore::EvalResult>& records,
                 std::uint32_t block_rows, runtime::ThreadTeam* team,
                 ArchiveStats* stats, Alloc alloc) {
  if (block_rows == 0) {
    throw std::invalid_argument("archive: block_rows must be positive");
  }
  const std::uint64_t rows = records.size();
  const Layout lay = Layout::make(rows, block_rows);
  runtime::ThreadTeam solo(1);
  runtime::ThreadTeam& workers = team != nullptr ? *team : solo;

  // Stable index sort: equal indices (possible after cross-directory
  // folds) keep their load order, so the archive reproduces the exact
  // record order a full-scan consumer saw.  Records already in index
  // order (a sweep's, a fold's of contiguous shards) need no permutation.
  std::vector<std::uint64_t> perm;
  if (!std::is_sorted(records.begin(), records.end(),
                      [](const explore::EvalResult& a,
                         const explore::EvalResult& b) {
                        return a.index < b.index;
                      })) {
    perm.resize(records.size());
    std::iota(perm.begin(), perm.end(), std::uint64_t{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&records](std::uint64_t a, std::uint64_t b) {
                       return records[static_cast<std::size_t>(a)].index <
                              records[static_cast<std::size_t>(b)].index;
                     });
  }
  const auto row = [&records, &perm](std::uint64_t i) -> const auto& {
    return records[static_cast<std::size_t>(perm.empty() ? i : perm[i])];
  };

  // Worker t owns a contiguous share of the blocks in both passes.
  const auto share = [&lay](int tid, int team_size) {
    return runtime::ThreadTeam::partition(0, lay.blocks, tid, team_size);
  };

  // The dictionary first: its size completes the file's, so the buffer
  // is allocated once at full size — never grown, which would briefly
  // hold two copies of the archive.  Each worker collects its share's
  // labels in row order, and the shares merge in block order, so the
  // ids are the whole file's first-seen ids whatever the team size.
  std::vector<LabelDict> shares(static_cast<std::size_t>(workers.size()));
  workers.run([&](int tid, int team_size) {
    const auto [first, last] = share(tid, team_size);
    shares[static_cast<std::size_t>(tid)].add_rows(
        row, first * block_rows,
        std::min<std::uint64_t>(rows, last * block_rows));
  });
  LabelDict dict;
  for (const LabelDict& part : shares) dict.merge(part);
  shares.clear();
  const std::string dict_section = dict.encode();
  auto buffer = alloc(static_cast<std::size_t>(lay.dict_off) +
                      dict_section.size());
  char* const bytes = buffer.data();

  // Rows, zones and slice CRCs, block-parallel.  No byte depends on the
  // team size.
  std::vector<Zone> zones(lay.blocks);
  workers.run([&](int tid, int team_size) {
    const auto [first, last] = share(tid, team_size);
    LabelDict::Recent own{};
    for (std::size_t b = first; b < last; ++b) {
      fill_block(static_cast<std::uint32_t>(b), lay, dict, row, bytes,
                 zones[b], own);
    }
  });
  std::uint64_t feasible_total = 0;
  for (const Zone& zone : zones) feasible_total += zone.feasible_rows;

  // Zone-map section (+ section CRC).
  for (std::uint32_t b = 0; b < lay.blocks; ++b) {
    const Zone& zone = zones[b];
    char* p = bytes + lay.zones_off + std::uint64_t{b} * kZoneBytes;
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
  poke_u32(bytes + lay.zones_off + zones_size,
           crc32(bytes + lay.zones_off, static_cast<std::size_t>(zones_size)));

  // The slice-CRC section's own CRC.
  const std::uint64_t crcs_size = std::uint64_t{lay.blocks} * kColumnCount * 4;
  poke_u32(bytes + lay.crcs_off + crcs_size,
           crc32(bytes + lay.crcs_off, static_cast<std::size_t>(crcs_size)));

  std::memcpy(bytes + lay.dict_off, dict_section.data(), dict_section.size());
  const std::uint64_t size = lay.dict_off + dict_section.size();

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
  put_u64(header, size);
  put_u32(header, crc32(header));
  std::memcpy(bytes, header.data(), kHeaderSize);

  if (stats != nullptr) {
    stats->rows = rows;
    stats->feasible_rows = feasible_total;
    stats->block_rows = block_rows;
    stats->blocks = lay.blocks;
    stats->dict_entries = dict.entries();
    stats->bytes = size;
  }
  return buffer;
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
                           std::uint32_t block_rows,
                           runtime::ThreadTeam* team) {
  return encode_with(records, block_rows, team, nullptr,
                     [](std::size_t size) { return std::string(size, '\0'); });
}

ArchiveStats write_archive(const std::string& path,
                           const std::vector<explore::EvalResult>& records,
                           std::uint32_t block_rows,
                           runtime::ThreadTeam* team) {
  // An uninitialized buffer: the encoder writes every byte, so the
  // workers' first writes are the only pass over the pages.
  struct Buffer {
    std::unique_ptr<char[]> bytes;
    char* data() { return bytes.get(); }
  };
  ArchiveStats stats;
  const Buffer buffer = encode_with(
      records, block_rows, team, &stats, [](std::size_t size) {
        return Buffer{std::make_unique_for_overwrite<char[]>(size)};
      });
  const std::string_view bytes(buffer.bytes.get(),
                               static_cast<std::size_t>(stats.bytes));
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

  /// Rows are sorted by index, so the zones' index bounds are too: the
  /// first block whose max index reaches `index`, or zones.size().
  std::uint32_t block_reaching(std::uint64_t index) const {
    return static_cast<std::uint32_t>(
        std::ranges::partition_point(zones,
                                     [index](const Zone& zone) {
                                       return zone.max_index < index;
                                     }) -
        zones.begin());
  }

  /// The first row of a block whose index reaches `index`, found in the
  /// block's index slice `column`; the block's row count when none does.
  static std::uint32_t row_reaching(std::string_view column,
                                    std::uint64_t index) {
    const auto rows =
        std::views::iota(std::uint32_t{0},
                         static_cast<std::uint32_t>(column.size() / 8));
    return static_cast<std::uint32_t>(
        std::ranges::partition_point(rows,
                                     [&](std::uint32_t row) {
                                       return get_u64(column.data() +
                                                      std::uint64_t{row} * 8) <
                                              index;
                                     }) -
        rows.begin());
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

  /// The rows of the k best feasible records, best first: top_k's scan.
  std::vector<std::size_t> rank_rows(std::size_t k) const;

  /// top_k's ranking, memoized: the rows of the largest k ranked so
  /// far.  The archive never changes and the order is total, so any
  /// smaller k is a prefix — best() and repeated top_k calls materialize
  /// rows instead of rescanning blocks.
  mutable util::Mutex rank_mu;
  mutable std::shared_ptr<const std::vector<std::size_t>> ranked
      MS_GUARDED_BY(rank_mu);
};

std::vector<std::size_t> ArchiveReader::Impl::rank_rows(
    std::size_t k) const {
  // Candidate selection never materializes records: one explore::TopK
  // (rows as ids) takes the feasible/speedup/index columns of blocks in
  // descending zone max-speedup until no block left can pass its cutoff.
  std::vector<std::uint32_t> order;
  order.reserve(zones.size());
  for (std::uint32_t b = 0; b < zones.size(); ++b) {
    if (zones[b].feasible_rows > 0) order.push_back(b);
  }
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (zones[a].max_speedup != zones[b].max_speedup) {
                return zones[a].max_speedup > zones[b].max_speedup;
              }
              return a < b;
            });

  explore::TopK top(k, 1024);
  std::string feas_scratch, speedup_scratch, index_scratch;
  for (const std::uint32_t b : order) {
    if (const explore::RankKey* kth = top.cutoff();
        kth != nullptr && zones[b].max_speedup < kth->speedup) {
      break;  // nothing below this zone ceiling can displace the k-th
    }
    const std::string_view feas = slice(b, kColFeasible, &feas_scratch);
    const std::string_view speedup =
        slice(b, kColSpeedup, &speedup_scratch);
    const std::string_view index = slice(b, kColIndex, &index_scratch);
    const std::uint64_t rows_in = lay.rows_in_block(b);
    const std::uint64_t first_row = std::uint64_t{b} * lay.block_rows;
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      if (static_cast<unsigned char>(feas[i]) == 0) continue;
      top.offer({get_f64(speedup.data() + i * 8),
                 static_cast<std::size_t>(get_u64(index.data() + i * 8)),
                 static_cast<std::size_t>(first_row + i)});
    }
  }
  return top.ids();
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
      zone.max_speedup = get_f64(p + 28);
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

std::uint64_t ArchiveReader::index_end() const noexcept {
  return impl_->zones.empty() ? 0 : impl_->zones.back().max_index + 1;
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
  const auto want =
      static_cast<std::size_t>(std::min<std::uint64_t>(k, impl.feasible));
  if (want == 0) return {};
  std::shared_ptr<const std::vector<std::size_t>> ranked;
  {
    util::MutexLock lock(impl.rank_mu);
    ranked = impl.ranked;
  }
  if (ranked == nullptr || ranked->size() < want) {
    ranked = std::make_shared<const std::vector<std::size_t>>(
        impl.rank_rows(want));
    util::MutexLock lock(impl.rank_mu);
    if (impl.ranked == nullptr || impl.ranked->size() < ranked->size()) {
      impl.ranked = ranked;
    }
  }
  std::vector<explore::EvalResult> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(impl.row((*ranked)[i]));
  return out;
}

std::vector<explore::EvalResult> ArchiveReader::pareto(
    explore::CostMetric metric) const {
  const Impl& impl = *impl_;

  // One explore::ParetoReduction over the feasible rows in row order,
  // fed from the feasible/index/speedup/cost columns alone, so the
  // frontier is byte-identical to explore::pareto_frontier over the same
  // records while holding one candidate per distinct cost.
  explore::ParetoReduction reduction;
  std::string feas_scratch, speedup_scratch, index_scratch, r_scratch,
      rl_scratch, cores_scratch;
  const auto value = [](std::string_view column, std::uint64_t i) {
    return column.empty() ? 0.0 : get_f64(column.data() + i * 8);
  };
  for (std::uint32_t b = 0; b < impl.zones.size(); ++b) {
    if (impl.zones[b].feasible_rows == 0) continue;
    const std::string_view feas = impl.slice(b, kColFeasible, &feas_scratch);
    const std::string_view speedup =
        impl.slice(b, kColSpeedup, &speedup_scratch);
    const std::string_view index = impl.slice(b, kColIndex, &index_scratch);
    // The columns the cost reads; explore::cost_of ignores the others.
    std::string_view r, rl, cores;
    if (metric == explore::CostMetric::kCoreArea) {
      r = impl.slice(b, kColR, &r_scratch);
      rl = impl.slice(b, kColRl, &rl_scratch);
    } else {
      cores = impl.slice(b, kColCores, &cores_scratch);
    }
    const std::uint64_t rows_in = impl.lay.rows_in_block(b);
    const std::uint64_t first_row = std::uint64_t{b} * impl.lay.block_rows;
    for (std::uint64_t i = 0; i < rows_in; ++i) {
      if (static_cast<unsigned char>(feas[i]) == 0) continue;
      reduction.offer(
          explore::cost_of(metric, value(r, i), value(rl, i), value(cores, i)),
          {get_f64(speedup.data() + i * 8),
           static_cast<std::size_t>(get_u64(index.data() + i * 8)),
           static_cast<std::size_t>(first_row + i)});
    }
  }

  std::vector<explore::EvalResult> out;
  for (const std::size_t row : reduction.frontier()) {
    out.push_back(impl.row(row));
  }
  return out;
}

std::optional<explore::EvalResult> ArchiveReader::find(
    std::uint64_t index, const DesignKey& key) const {
  const Impl& impl = *impl_;
  // The first block reaching `index` holds its first row, and its run
  // of rows may continue into the next blocks.
  std::string scratch;
  for (std::uint32_t block = impl.block_reaching(index);
       block < impl.zones.size() && impl.zones[block].min_index <= index;
       ++block) {
    const std::string_view column = impl.slice(block, kColIndex, &scratch);
    const std::uint64_t first_row = std::uint64_t{block} * impl.lay.block_rows;
    for (std::uint64_t row = Impl::row_reaching(column, index);
         row < column.size() / 8 && get_u64(column.data() + row * 8) == index;
         ++row) {
      explore::EvalResult record = impl.row(first_row + row);
      if (DesignKey::of(record) == key) return record;
    }
  }
  return std::nullopt;
}

std::vector<explore::EvalResult> ArchiveReader::load_all(
    std::uint64_t min_index) const {
  const Impl& impl = *impl_;
  // Blocks wholly below the bound are never read; in the first block
  // left, the rows below it are a prefix of its index slice.
  const std::uint32_t first_block = impl.block_reaching(min_index);
  std::vector<explore::EvalResult> out;
  if (first_block == 0) out.reserve(static_cast<std::size_t>(impl.lay.rows));
  std::vector<std::uint32_t> rows;
  std::string scratch;
  for (std::uint32_t b = first_block; b < impl.lay.blocks; ++b) {
    std::uint32_t first = 0;
    if (b == first_block && impl.zones[b].min_index < min_index) {
      first = Impl::row_reaching(impl.slice(b, kColIndex, &scratch), min_index);
    }
    rows.resize(static_cast<std::size_t>(impl.lay.rows_in_block(b) - first));
    std::iota(rows.begin(), rows.end(), first);
    impl.materialize(b, rows, &out);
  }
  return out;
}

void ArchiveReader::verify() const {
  const Impl& impl = *impl_;
  std::string scratch;
  for (std::uint32_t b = 0; b < impl.lay.blocks; ++b) {
    for (int col = 0; col < kColumnCount; ++col) impl.slice(b, col, &scratch);
  }
}

}  // namespace mergescale::search
