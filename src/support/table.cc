#include "support/table.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>

namespace ddtr::support {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 2 * (header_.empty() ? 0 : header_.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string format_double(double value, int precision) {
  // std::to_chars writes what a classic-locale `std::fixed` stream writes,
  // whatever the global locale is. Most values fit the stack buffer; the
  // fallback holds DBL_MAX's 309 integer digits, sign, point and fraction.
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::fixed, precision);
  if (result.ec == std::errc{}) return std::string(buf, result.ptr);
  std::string out(static_cast<std::size_t>(
                      std::numeric_limits<double>::max_exponent10 + 3 +
                      std::max(precision, 6)),
                  '\0');
  result = std::to_chars(out.data(), out.data() + out.size(), value,
                         std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(result.ptr - out.data()));
  return out;
}

std::string format_percent(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  return format_double(value, unit == 0 ? 0 : 1) + " " + kUnits[unit];
}

}  // namespace ddtr::support
