#include "util/format.hpp"

#include <charconv>

namespace mergescale::util {

char* put_general(char* out, double value, int precision) noexcept {
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
