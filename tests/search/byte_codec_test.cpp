#include "search/byte_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mergescale::search::bytes {
namespace {

/// The textbook byte-at-a-time CRC-32 (reflected, poly 0xEDB88320), with
/// its table built here rather than taken from byte_codec.hpp.
std::uint32_t oracle_crc32(const char* data, std::size_t size) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(crc32(std::string(32, '\0')), 0x190A55ADu);
}

TEST(Crc32, MatchesTheByteAtATimeOracleAtEveryAlignment) {
  // Random bytes (high bits set included) read from every start offset
  // 0-7, so the eight-byte steps meet every alignment and every tail
  // length.
  std::mt19937_64 rng(7);
  std::string buffer(8 + 4096 + 9, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  for (std::size_t n = 4096 - 9; n <= 4096 + 9; ++n) lengths.push_back(n);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : lengths) {
      const char* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, n), oracle_crc32(p, n))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32, StringViewOverloadAgreesWithThePointerForm) {
  const std::string text = "mergescale archive slice";
  EXPECT_EQ(crc32(std::string_view(text)), crc32(text.data(), text.size()));
  EXPECT_EQ(crc32(std::string_view(text)),
            oracle_crc32(text.data(), text.size()));
}

}  // namespace
}  // namespace mergescale::search::bytes
