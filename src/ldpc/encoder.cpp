#include "ldpc/encoder.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace renoc {

namespace {

std::size_t word_of(int col) { return static_cast<std::size_t>(col / 64); }

std::uint64_t bit_of(int col) {
  return 1ULL << (static_cast<unsigned>(col) % 64);
}

}  // namespace

LdpcEncoder::LdpcEncoder(const LdpcCode& code)
    : n_(code.n()), words_(static_cast<std::size_t>((n_ + 63) / 64)) {
  const int m = code.m();
  auto row = [this](int r) {
    return rows_.data() + static_cast<std::size_t>(r) * words_;
  };

  // Dense bitset copy of H, one row of words_ words per check.
  rows_.assign(static_cast<std::size_t>(m) * words_, 0);
  for (int c = 0; c < m; ++c)
    for (const TannerEdge& e : code.check_edges(c))
      row(c)[word_of(e.other)] ^= bit_of(e.other);

  // Forward elimination to row-echelon form. Every row at or below
  // `next_row` is zero left of `col`, so the swap and the XORs start at
  // the column's word.
  std::vector<char> is_pivot_col(static_cast<std::size_t>(n_), 0);
  int next_row = 0;
  for (int col = 0; col < n_ && next_row < m; ++col) {
    const std::size_t w0 = word_of(col);
    int pivot = next_row;
    while (pivot < m && !(row(pivot)[w0] & bit_of(col))) ++pivot;
    if (pivot == m) continue;
    std::uint64_t* const top = row(next_row);
    if (pivot != next_row)
      std::swap_ranges(top + w0, top + words_, row(pivot) + w0);
    // Rows next_row + 1 .. pivot lack the column (the swapped-down row
    // included), so clearing starts below the pivot's old position.
    for (int r = pivot + 1; r < m; ++r) {
      std::uint64_t* const dst = row(r);
      if (!(dst[w0] & bit_of(col))) continue;
      for (std::size_t w = w0; w < words_; ++w) dst[w] ^= top[w];
    }
    pivot_cols_.push_back(col);
    is_pivot_col[static_cast<std::size_t>(col)] = 1;
    ++next_row;
  }
  for (int col = 0; col < n_; ++col)
    if (!is_pivot_col[static_cast<std::size_t>(col)])
      free_cols_.push_back(col);
  RENOC_CHECK(static_cast<int>(pivot_cols_.size() + free_cols_.size()) == n_);
}

std::vector<std::uint8_t> LdpcEncoder::encode(
    const std::vector<std::uint8_t>& data) const {
  RENOC_CHECK_MSG(static_cast<int>(data.size()) == k(),
                  "data size " << data.size() << " != k " << k());
  std::vector<std::uint64_t> packed(words_, 0);
  for (std::size_t i = 0; i < free_cols_.size(); ++i)
    if (data[i] & 1) packed[word_of(free_cols_[i])] |= bit_of(free_cols_[i]);
  // Back-substitution, last pivot row first. Right of its pivot a row
  // holds only data bits and parity bits already solved, and its own
  // pivot bit is still zero, so the popcount's parity is the pivot bit.
  for (std::size_t r = pivot_cols_.size(); r-- > 0;) {
    const int col = pivot_cols_[r];
    const std::uint64_t* const row = rows_.data() + r * words_;
    int ones = 0;
    for (std::size_t w = word_of(col); w < words_; ++w)
      ones += std::popcount(row[w] & packed[w]);
    if (ones & 1) packed[word_of(col)] |= bit_of(col);
  }
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(n_));
  for (int col = 0; col < n_; ++col)
    cw[static_cast<std::size_t>(col)] =
        (packed[word_of(col)] & bit_of(col)) ? 1 : 0;
  return cw;
}

}  // namespace renoc
