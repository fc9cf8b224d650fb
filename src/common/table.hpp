// Console table printer used by the bench harness to render figure/table
// rows in the same layout the paper reports (scheme x metric grids).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace paldia {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string num(double value, int precision = 2);
  static std::string percent(double fraction, int precision = 2);
  static std::string dollars(double value);  // "$" and 4 decimals

  void print(std::ostream& out) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace paldia
