// Aligned table rendering: MetricsSink prints each family's sweep table
// through this class, and scenario factories format numeric grid values
// in instance names with `format_cell`.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace findep::support {

/// Collects rows of stringified cells and renders them as an aligned,
/// human-readable table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; the cell count must equal the header count.
  void add_row(std::vector<std::string> cells);

  /// Renders with space-padded, right-aligned columns.
  void print(std::ostream& out) const;

  /// Formats a double with six significant digits.
  [[nodiscard]] static std::string format_cell(double v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner ("== title ==") used to delimit experiments in
/// sweep output.
void print_banner(std::ostream& out, const std::string& title);

}  // namespace findep::support
