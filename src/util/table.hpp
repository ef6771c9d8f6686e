#pragma once
// Column-aligned plain-text table and CSV emission.  Every bench binary in
// this repository prints the rows/series of one paper table or figure; this
// helper keeps the output format uniform and machine-parseable.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/format.hpp"

namespace mergescale::util {

/// A simple column-oriented table: set headers once, append rows of cells,
/// then render as aligned text or CSV.  Cells are stored as strings; use
/// the typed add_* helpers for consistent numeric formatting.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Number of columns.
  std::size_t columns() const noexcept { return headers_.size(); }
  /// Number of data rows appended so far.
  std::size_t rows() const noexcept { return rows_.size(); }

  /// Begins a new row.  Cells are appended with cell()/num() until the row
  /// has `columns()` entries; starting a new row pads the previous one.
  Table& new_row();
  /// Appends a string cell to the current row.
  Table& cell(std::string_view text);
  /// Appends a floating-point cell rendered with `precision` digits after
  /// the decimal point.
  Table& num(double value, int precision = 3);
  /// Appends an integer cell.
  Table& num(long long value);

  /// Returns a cell by row/column (throws std::out_of_range when absent).
  const std::string& at(std::size_t row, std::size_t col) const;

  /// Renders the table with aligned columns, a header underline, and an
  /// optional title line.
  std::string to_text(std::string_view title = {}) const;

  /// Renders the table as RFC-4180-ish CSV (quotes cells containing commas).
  std::string to_csv() const;

  /// Convenience: prints to_text() to the stream followed by a newline.
  void print(std::ostream& os, std::string_view title = {}) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mergescale::util
