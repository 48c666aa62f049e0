#include "support/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/assert.h"

namespace findep::support {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  FINDEP_REQUIRE(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  FINDEP_REQUIRE_MSG(cells.size() == headers_.size(),
                     "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << "  ";
      out << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (const std::size_t w : widths) rule += w + 2;
  out << std::string(rule > 2 ? rule - 2 : rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::format_cell(double v) {
  std::ostringstream out;
  out << std::setprecision(6) << v;
  return out.str();
}

void print_banner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n";
}

}  // namespace findep::support
