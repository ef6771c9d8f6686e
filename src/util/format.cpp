#include "util/format.hpp"

#include <charconv>
#include <cmath>

namespace mergescale::util {

char* put_general(char* out, double value, int precision) noexcept {
  // An integral value of fewer than `precision` digits prints under
  // "%.*g" as its plain digits: no exponent, no fraction.  Integer
  // to_chars writes those several times faster than the precision path,
  // and grid coordinates (chip budgets, core sizes) are such values.
  static constexpr double kPow10[] = {1e1,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15, 1e16, 1e17};
  if (precision >= 0 && precision <= 17 &&
      std::fabs(value) < kPow10[precision] && std::trunc(value) == value) {
    if (value == 0.0 && std::signbit(value)) {
      *out++ = '-';
    }
    return std::to_chars(out, out + kGeneralChars,
                         static_cast<long long>(value))
        .ptr;
  }
  return std::to_chars(out, out + kGeneralChars, value,
                       std::chars_format::general, precision)
      .ptr;
}

char* put_fixed(char* out, double value, int precision) noexcept {
  return std::to_chars(out, out + fixed_chars(precision), value,
                       std::chars_format::fixed, precision)
      .ptr;
}

std::string format_double(double value, int precision) {
  std::string text(fixed_chars(precision), '\0');
  text.resize(put_fixed(text.data(), value, precision) - text.data());
  return text;
}

std::string format_general(double value, int precision) {
  char buf[kGeneralChars];
  return std::string(buf, put_general(buf, value, precision));
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json_escaped(text, [&out](std::string_view piece) { out += piece; });
  return out;
}

}  // namespace mergescale::util
