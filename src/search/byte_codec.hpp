#pragma once
// Byte-level codecs shared by the binary run log (search/binary_log) and
// the columnar archive (search/archive): CRC-32 and little-endian
// integer / double encoding, independent of host byte order.  Internal
// to src/search; both on-disk formats are defined in terms of these.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mergescale::search::bytes {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the ubiquitous
/// zlib polynomial, table-driven.
inline constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

inline std::uint32_t crc32(const char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrcTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
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

}  // namespace mergescale::search::bytes
