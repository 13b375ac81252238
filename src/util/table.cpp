#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace renoc {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  RENOC_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  RENOC_CHECK_MSG(cells.size() == header_.size(),
                  "row has " << cells.size() << " cells, header has "
                             << header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  if (!title_.empty()) os << title_ << "\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << std::left << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << "\n";
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace renoc
