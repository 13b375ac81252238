// Plain-text table rendering for renoc_paper: each paper table or figure
// prints as an aligned text table on stdout next to its PAPER_*.json
// record.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace renoc {

/// Column-aligned text table with an optional title, e.g.
///
///   Table t({"Scheme", "dT (C)"});
///   t.add_row({"Rot", "4.15"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void set_title(std::string title) { title_ = std::move(title); }
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision.
  static std::string num(double v, int precision = 2);

  /// Renders with padded columns, a header rule, and the title if set.
  void print(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace renoc
