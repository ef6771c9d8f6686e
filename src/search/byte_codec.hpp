#pragma once
// Byte-level codecs shared by the binary run log (search/binary_log) and
// the columnar archive (search/archive): CRC-32, little-endian integer /
// double encoding, independent of host byte order, and the one rule
// both formats apply to a record holding a non-finite number.  Internal
// to src/search; both on-disk formats are defined in terms of these.
// Every value depends only on the bytes given, so the files these build
// do not depend on --threads, even where a thread team encodes the
// archive's blocks.

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "explore/engine.hpp"

namespace mergescale::search::bytes {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the ubiquitous
/// zlib polynomial, computed slicing-by-8: table 0 is the classic
/// byte-at-a-time table and table k advances a byte's contribution by k
/// more zero bytes, so one step folds eight input bytes with eight
/// independent lookups.  The values are the byte-at-a-time ones
/// (crc32("123456789") == 0xCBF43926), so the log and archive bytes do
/// not depend on how the CRC is computed.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}();

inline std::uint32_t crc32(const char* data, std::size_t size) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    // The first four bytes fold into the running CRC (little-endian
    // order, independent of the host's); the last four only index.
    const std::uint32_t lo = crc ^ (std::uint32_t{p[0]} |
                                    std::uint32_t{p[1]} << 8 |
                                    std::uint32_t{p[2]} << 16 |
                                    std::uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view data) {
  return crc32(data.data(), data.size());
}

/// Writes the low `Bytes` bytes of `v` at `p`, least significant first.
template <std::size_t Bytes>
inline void poke(char* p, std::uint64_t v) {
  for (std::size_t i = 0; i < Bytes; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

inline void poke_u16(char* p, std::uint16_t v) { poke<2>(p, v); }
inline void poke_u32(char* p, std::uint32_t v) { poke<4>(p, v); }
inline void poke_u64(char* p, std::uint64_t v) { poke<8>(p, v); }
inline void poke_f64(char* p, double v) {
  poke_u64(p, std::bit_cast<std::uint64_t>(v));
}

/// Appends the low `Bytes` bytes of `v` to `out`, least significant first.
template <std::size_t Bytes>
inline void put(std::string& out, std::uint64_t v) {
  char bytes[Bytes];
  poke<Bytes>(bytes, v);
  out.append(bytes, Bytes);
}

inline void put_u16(std::string& out, std::uint16_t v) { put<2>(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put<4>(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put<8>(out, v); }

/// Reads `Bytes` little-endian bytes at `p`.
template <std::size_t Bytes>
inline std::uint64_t peek(const char* p) {
  std::uint64_t v = 0;
  for (std::size_t i = Bytes; i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(peek<2>(p));
}
inline std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(peek<4>(p));
}
inline std::uint64_t get_u64(const char* p) { return peek<8>(p); }
inline double get_f64(const char* p) {
  return std::bit_cast<double>(get_u64(p));
}

/// The (feasible, cores, speedup) a record is stored as.  A record
/// holding a non-finite n, r, rl, cores or speedup is no usable design,
/// yet its design point is kept — a resume must not re-spend budget on
/// it — as infeasible with cores and speedup zeroed.  The log applies
/// this when it loads a record, the archive when it encodes one.
inline std::tuple<bool, double, double> stored_outcome(
    const explore::EvalResult& r) noexcept {
  if (std::isfinite(r.n) && std::isfinite(r.r) && std::isfinite(r.rl) &&
      std::isfinite(r.cores) && std::isfinite(r.speedup)) {
    return {r.feasible, r.cores, r.speedup};
  }
  return {false, 0.0, 0.0};
}

}  // namespace mergescale::search::bytes
