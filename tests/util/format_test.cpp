#include "util/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>


namespace mergescale::util {
namespace {

std::string printf_string(const char* format, int precision, double value) {
  char buf[400];
  std::snprintf(buf, sizeof buf, format, precision, value);
  return buf;
}

TEST(Format, NumbersMatchPrintfForEveryDoubleClass) {
  std::mt19937_64 rng(7);
  const double special[] = {0.0, -0.0, std::nan(""), -std::nan(""),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(),
                            1e300, -1e-300, 0.0005, 0.0015, 2.5, 1e21};
  auto check = [](double value) {
    for (int precision : {0, 1, 2, 3, 9, 17}) {
      ASSERT_EQ(format_double(value, precision),
                printf_string("%.*f", precision, value))
          << value << " precision " << precision;
      ASSERT_EQ(format_general(value, precision),
                printf_string("%.*g", precision, value))
          << value << " precision " << precision;
    }
  };
  for (double value : special) check(value);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof value);
    check(value);
    check(static_cast<double>(static_cast<std::int64_t>(rng() % 100000)) /
          64.0);
  }
}

TEST(Format, IntegralValuesMatchPrintfAtEveryDigitCount) {
  // put_general prints integral values with fewer digits than the
  // precision as plain integers; check both sides of every 10^p edge,
  // signed zeros and values past 2^53.
  auto check = [](double value) {
    for (int precision = 0; precision <= 17; ++precision) {
      ASSERT_EQ(format_general(value, precision),
                printf_string("%.*g", precision, value))
          << value << " precision " << precision;
    }
  };
  check(0.0);
  check(-0.0);
  double power = 1.0;
  for (int digits = 0; digits <= 18; ++digits, power *= 10.0) {
    for (const double value : {power - 1.0, power, power + 1.0,
                               std::nextafter(power, 0.0),
                               std::nextafter(power, 2 * power)}) {
      check(value);
      check(-value);
    }
  }
  check(9007199254740993.0);
  check(-123456789.0);
  check(2048.0);
}

TEST(Format, FixedNeverTruncatesHugeValues) {
  // 1e300 has 301 integer digits; the whole number must come out.
  const std::string text = format_double(1e300, 3);
  EXPECT_EQ(text.size(), 301u + 4u);
  EXPECT_EQ(text, printf_string("%.*f", 3, 1e300));
}

std::string csv(std::string_view text) {
  std::string out;
  csv_field(text, [&out](std::string_view piece) { out += piece; });
  return out;
}

TEST(Format, CsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv(""), "");
  EXPECT_EQ(csv("plain text"), "plain text");
  EXPECT_EQ(csv("a,b"), "\"a,b\"");
  EXPECT_EQ(csv("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv("\""), "\"\"\"\"");
  EXPECT_EQ(csv("say \"hi\", ok"), "\"say \"\"hi\"\", ok\"");
  EXPECT_EQ(csv("cr\r"), "cr\r");  // only , " and \n force quoting
}

TEST(Format, JsonEscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(std::string("\x00\x1f\n", 3)), "\\u0000\\u001f\\u000a");
  EXPECT_EQ(json_escape("caf\xc3\xa9\x7f"), "caf\xc3\xa9\x7f");
}

}  // namespace
}  // namespace mergescale::util
