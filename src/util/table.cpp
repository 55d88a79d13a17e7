#include "util/table.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace airfedga::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width does not match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

std::string Table::fmt_int(long long v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (auto w : widths) rule += w + 2;
  os << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv(const std::string& path) const {
  const auto parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (ec)
    throw std::runtime_error("Table::write_csv: cannot create directory " + parent.string() +
                             ": " + ec.message());
  std::ofstream f(path, std::ios::trunc);
  if (!f)
    throw std::runtime_error("Table::write_csv: cannot open " + path +
                             " for writing (check permissions and that the parent is a directory)");
  auto esc = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (char c : s) {
      quoted += c;
      if (c == '"') quoted += c;  // RFC 4180: embedded quotes double
    }
    quoted += '"';
    return quoted;
  };
  for (std::size_t c = 0; c < headers_.size(); ++c)
    f << esc(headers_[c]) << (c + 1 < headers_.size() ? "," : "\n");
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      f << esc(row[c]) << (c + 1 < row.size() ? "," : "\n");
}

}  // namespace airfedga::util
