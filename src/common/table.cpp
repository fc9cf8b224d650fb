#include "src/common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace paldia {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::percent(double fraction, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::dollars(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "$%.4f", value);
  return buf;
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };

  print_row(columns_);
  out << '|';
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace paldia
