// Plain-text table rendering for the benchmark harnesses and the CLI.
// Every table and figure reproduction prints through this so that output
// is aligned and diff-able.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace ddtr::support {

// Column-aligned text table. Cells are strings; numeric formatting is the
// caller's concern (see format_* helpers below).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Appends a row. Rows shorter than the header are padded with "".
  void add_row(std::vector<std::string> row);

  std::size_t row_count() const noexcept { return rows_.size(); }

  // Renders with a header rule and two-space column gaps.
  void print(std::ostream& os) const;

  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Fixed-precision decimal ("12.34").
std::string format_double(double value, int precision = 2);

// Percentage with sign stripped ("87.3%").
std::string format_percent(double fraction, int precision = 1);

// Thousands-separated integer ("4,578,103").
std::string format_count(std::uint64_t value);

// Scaled byte count ("466.1 KiB").
std::string format_bytes(std::uint64_t bytes);

}  // namespace ddtr::support

