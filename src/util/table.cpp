#include "util/table.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace charter::util {

Table::Table(std::string caption) : caption_(std::move(caption)) {}

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  require(header_.empty() || row.size() == header_.size(),
          "table row width must match header width");
  rows_.push_back(std::move(row));
}

void Table::add_separator() { rows_.emplace_back(); }

void Table::add_footnote(std::string note) {
  footnotes_.push_back(std::move(note));
}

std::string Table::render() const {
  // Column widths from header and all rows.
  std::size_t ncols = header_.size();
  for (const auto& row : rows_) ncols = std::max(ncols, row.size());
  std::vector<std::size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::size_t total = 0;
  for (std::size_t c = 0; c < ncols; ++c) total += width[c] + 3;
  const std::string rule(total > 1 ? total - 1 : 1, '-');

  std::ostringstream os;
  if (!caption_.empty()) os << caption_ << "\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < ncols; ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << cell << std::string(width[c] - cell.size(), ' ');
      if (c + 1 < ncols) os << " | ";
    }
    os << "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    os << rule << "\n";
  }
  for (const auto& row : rows_) {
    if (row.empty()) {
      os << rule << "\n";
    } else {
      emit(row);
    }
  }
  for (const auto& note : footnotes_) os << "  " << note << "\n";
  return os.str();
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

std::string Table::fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string Table::fmt_pvalue(double p) {
  char buf[64];
  if (p <= 0.0) return "<1e-300";
  if (p >= 0.01) {
    std::snprintf(buf, sizeof(buf), "%.2f", p);
  } else {
    // %.2e rounds the mantissa and carries into the exponent (9.996e-5
    // prints 1.00e-04); the exponent is then rewritten without padding.
    std::snprintf(buf, sizeof(buf), "%.2e", p);
    char* e = std::strchr(buf, 'e');
    const int exponent = std::atoi(e + 1);
    std::snprintf(e, sizeof(buf) - static_cast<std::size_t>(e - buf), "e%d",
                  exponent);
  }
  return buf;
}

std::string Table::fmt_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace charter::util
