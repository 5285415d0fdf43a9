// Console table and CSV emission used by the benchmark harnesses.
//
// Every bench binary prints the rows/series the corresponding paper table or
// figure reports; Table gives them a uniform, aligned format and an optional
// CSV dump for plotting.
#pragma once

#include <string>
#include <vector>

namespace decima {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Adds a row; values are pre-formatted strings (see fmt() helpers below).
  Table& add_row(std::vector<std::string> row);

  // Renders an aligned ASCII table.
  std::string to_string() const;

  // Renders RFC-4180-ish CSV (no quoting of embedded commas needed here).
  std::string to_csv() const;

  // Writes CSV to a file; returns false on I/O error.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Numeric formatting helpers.
std::string fmt(double v, int precision = 2);
std::string fmt_int(long long v);
std::string fmt_pct(double fraction, int precision = 1);  // 0.21 -> "21.0%"

}  // namespace decima
