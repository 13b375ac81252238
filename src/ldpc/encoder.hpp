// Systematic LDPC encoding via GF(2) elimination.
//
// Gallager constructions do not come in systematic form, so the encoder
// brings H to row-echelon form once at construction: forward elimination
// over one flat word-packed bit matrix, scanning columns left to right and
// taking the first row at or below the current pivot row that has the
// column set. Only the rows below the pivot are cleared, and only from the
// pivot's word onward. Pivot columns become parity positions; the
// remaining (free) columns carry data.
//
// encode() places the data bits at the free positions of a word-packed
// codeword and back-substitutes from the last pivot row up: every column
// right of a row's pivot is either data or an already-solved parity bit,
// so the pivot bit is the parity of popcount(row & codeword) over the
// row's words from its pivot word onward. Once the free bits are set the
// parity bits are unique, so this yields exactly the codeword a full
// Gauss–Jordan reduction with the same pivot rule yields
// (tests/support/reference_encoder, pinned by ldpc_test).
//
// Cost: construction O(m * m * n / 64) word operations, encode()
// O(rank * n / 64). encode() is const and keeps no scratch member: one
// encoder is shared read-only by run_ber_sweep's worker threads, so each
// call packs its codeword into a buffer of its own.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"

namespace renoc {

class LdpcEncoder {
 public:
  /// Performs the one-time elimination.
  explicit LdpcEncoder(const LdpcCode& code);

  /// Data bits per codeword (n - rank(H); >= n - m).
  int k() const { return static_cast<int>(free_cols_.size()); }
  int n() const { return n_; }
  /// rank(H); the number of independent parity constraints.
  int rank() const { return static_cast<int>(pivot_cols_.size()); }

  /// Encodes `data` (size k, 0/1 values) into a codeword (size n) that
  /// satisfies every check of the original code.
  std::vector<std::uint8_t> encode(const std::vector<std::uint8_t>& data) const;

 private:
  int n_ = 0;
  std::size_t words_ = 0;            // 64-bit words per row
  std::vector<std::uint64_t> rows_;  // m x words_, row-echelon form; the
                                     // rows past rank() are zero
  std::vector<int> pivot_cols_;      // pivot column of each row
  std::vector<int> free_cols_;       // data positions, ascending
};

}  // namespace renoc
