#include "support/reference_encoder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace renoc {

ReferenceEncoder::ReferenceEncoder(const LdpcCode& code) : n_(code.n()) {
  const int m = code.m();
  const std::size_t words = static_cast<std::size_t>((n_ + 63) / 64);

  // Dense bitset copy of H.
  std::vector<Row> rows(static_cast<std::size_t>(m), Row(words, 0));
  for (int c = 0; c < m; ++c)
    for (const TannerEdge& e : code.check_edges(c))
      rows[static_cast<std::size_t>(c)][static_cast<std::size_t>(e.other / 64)] ^=
          1ULL << (static_cast<unsigned>(e.other) % 64);

  // Gauss–Jordan to reduced row-echelon form.
  std::vector<char> is_pivot_col(static_cast<std::size_t>(n_), 0);
  int next_row = 0;
  for (int col = 0; col < n_ && next_row < m; ++col) {
    int pivot = -1;
    for (int r = next_row; r < m; ++r) {
      if (get(rows[static_cast<std::size_t>(r)], col)) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) continue;
    std::swap(rows[static_cast<std::size_t>(pivot)],
              rows[static_cast<std::size_t>(next_row)]);
    // Eliminate the column from every other row (full Jordan reduction so
    // each pivot row ends up referencing only free columns).
    for (int r = 0; r < m; ++r) {
      if (r == next_row) continue;
      if (!get(rows[static_cast<std::size_t>(r)], col)) continue;
      for (std::size_t w = 0; w < words; ++w)
        rows[static_cast<std::size_t>(r)][w] ^=
            rows[static_cast<std::size_t>(next_row)][w];
    }
    pivot_cols_.push_back(col);
    is_pivot_col[static_cast<std::size_t>(col)] = 1;
    ++next_row;
  }
  // Copy the pivot rows only after elimination has fully finished — rows
  // keep changing as later pivot columns are cleared out of them.
  rref_rows_.reserve(pivot_cols_.size());
  for (std::size_t r = 0; r < pivot_cols_.size(); ++r)
    rref_rows_.push_back(rows[r]);
  for (int col = 0; col < n_; ++col)
    if (!is_pivot_col[static_cast<std::size_t>(col)])
      free_cols_.push_back(col);
  RENOC_CHECK(static_cast<int>(pivot_cols_.size() + free_cols_.size()) == n_);
}

std::vector<std::uint8_t> ReferenceEncoder::encode(
    const std::vector<std::uint8_t>& data) const {
  RENOC_CHECK_MSG(static_cast<int>(data.size()) == k(),
                  "data size " << data.size() << " != k " << k());
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(n_), 0);
  for (std::size_t i = 0; i < free_cols_.size(); ++i)
    cw[static_cast<std::size_t>(free_cols_[i])] = data[i] & 1;
  // Each pivot row: pivot bit = XOR of the (free-column) bits in the row.
  for (std::size_t r = 0; r < rref_rows_.size(); ++r) {
    int acc = 0;
    for (std::size_t i = 0; i < free_cols_.size(); ++i) {
      if (get(rref_rows_[r], free_cols_[i]))
        acc ^= cw[static_cast<std::size_t>(free_cols_[i])];
    }
    cw[static_cast<std::size_t>(pivot_cols_[r])] =
        static_cast<std::uint8_t>(acc);
  }
  return cw;
}

std::vector<std::uint8_t> ReferenceEncoder::extract_data(
    const std::vector<std::uint8_t>& codeword) const {
  RENOC_CHECK(static_cast<int>(codeword.size()) == n_);
  std::vector<std::uint8_t> data;
  data.reserve(free_cols_.size());
  for (int col : free_cols_)
    data.push_back(codeword[static_cast<std::size_t>(col)] & 1);
  return data;
}

}  // namespace renoc
