#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mergescale::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: at least one column required");
  }
}

Table& Table::new_row() {
  if (!rows_.empty()) rows_.back().resize(columns());
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string_view text) {
  if (rows_.empty()) new_row();
  if (rows_.back().size() >= columns()) {
    throw std::out_of_range("Table: row already full");
  }
  rows_.back().emplace_back(text);
  return *this;
}

Table& Table::num(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::num(long long value) { return cell(std::to_string(value)); }

const std::string& Table::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::to_text(std::string_view title) const {
  std::vector<std::size_t> widths(columns());
  for (std::size_t c = 0; c < columns(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  if (!title.empty()) out << "== " << title << " ==\n";
  // A `cells[c] : std::string{}` ternary would convert both branches to
  // a prvalue and copy every cell; the named empty keeps the reference.
  static const std::string kEmpty;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < columns(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : kEmpty;
      out << text << std::string(widths[c] - text.size() + 2, ' ');
    }
    out << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::string out;
  auto put = [&out](std::string_view piece) { out += piece; };
  for (std::size_t c = 0; c < columns(); ++c) {
    if (c) out += ',';
    csv_field(headers_[c], put);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns(); ++c) {
      if (c) out += ',';
      if (c < row.size()) csv_field(row[c], put);
    }
    out += '\n';
  }
  return out;
}

void Table::print(std::ostream& os, std::string_view title) const {
  os << to_text(title) << '\n';
}

}  // namespace mergescale::util
