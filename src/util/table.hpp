#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace airfedga::util {

/// Fixed-width console table used by the benchmark harness to print
/// paper-style result rows, plus a CSV writer for post-processing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double v, int precision = 3);
  static std::string fmt_int(long long v);

  /// Renders with aligned columns and a header rule.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (no quoting of embedded separators needed for
  /// our numeric tables, but commas in cells are escaped defensively).
  /// Replaces any existing file.
  void write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace airfedga::util
