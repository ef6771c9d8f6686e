#pragma once
// Allocation-free text rendering shared by util::Table, the JSON writers
// and the explore report writers.  Numbers go through std::to_chars, whose
// "general" and "fixed" styles with an explicit precision print exactly
// what printf's "%.*g" and "%.*f" print in the C locale — without a
// locale lookup, format parsing or the heap.  CSV quoting and JSON
// escaping hand their output to a sink piece by piece, so a writer can
// append them in place.

#include <cstddef>
#include <string>
#include <string_view>

namespace mergescale::util {

/// Room put_general needs at precision <= 17 ("-d.<16 digits>e-308").
inline constexpr std::size_t kGeneralChars = 24;

/// Room put_fixed needs at `precision`: a sign, the 309 integer digits of
/// DBL_MAX, the point and `precision` fraction digits.
constexpr std::size_t fixed_chars(int precision) noexcept {
  return 311 + static_cast<std::size_t>(precision);
}

/// Writes printf("%.*g", precision, value) at `out`, which must have
/// kGeneralChars free bytes; returns one past the last byte written.
char* put_general(char* out, double value, int precision) noexcept;

/// Writes printf("%.*f", precision, value) at `out`, which must have
/// fixed_chars(precision) free bytes; returns one past the last byte.
char* put_fixed(char* out, double value, int precision) noexcept;

/// printf("%.*f", precision, value) as a string (Table::num's cells).
std::string format_double(double value, int precision);

/// printf("%.*g", precision, value) as a string; precision 9 is the
/// shortest exact-enough rendering of a core size or count.
std::string format_general(double value, int precision);

/// Hands `text` to `put(std::string_view)` as one RFC-4180-ish CSV
/// field: verbatim, or double-quoted with inner quotes doubled when it
/// holds a comma, a quote or a newline.
template <typename Put>
void csv_field(std::string_view text, Put&& put) {
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    put(text);
    return;
  }
  put(std::string_view("\""));
  std::size_t start = 0;
  for (std::size_t quote = text.find('"'); quote != std::string_view::npos;
       quote = text.find('"', start)) {
    put(text.substr(start, quote + 1 - start));  // through the quote ...
    put(std::string_view("\""));                 // ... and its double
    start = quote + 1;
  }
  put(text.substr(start));
  put(std::string_view("\""));
}

/// Hands `text` to `put(std::string_view)` JSON-escaped, without the
/// surrounding quotes: '"' and '\\' get a backslash, bytes below 0x20
/// become \u00xx (lower-case hex), everything else passes through.
template <typename Put>
void json_escaped(std::string_view text, Put&& put) {
  constexpr char kHex[] = "0123456789abcdef";
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    put(text.substr(start, i - start));
    if (byte < 0x20) {
      const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                             kHex[byte & 0xf]};
      put(std::string_view(escape, sizeof escape));
    } else {
      const char escape[] = {'\\', text[i]};
      put(std::string_view(escape, sizeof escape));
    }
    start = i + 1;
  }
  put(text.substr(start));
}

/// `text` JSON-escaped as a string (json_escaped's rule), for writers
/// that build a line in memory.  search::RunLog::read_meta inverts it
/// for meta.json's one record.
std::string json_escape(std::string_view text);

}  // namespace mergescale::util
