// Seed semantics oracle for the systematic LDPC encoder.
//
// This is LdpcEncoder exactly as it stood before the library encoder
// switched to forward elimination and word-parallel back-substitution: a
// full Gauss–Jordan reduction of H to reduced row-echelon form, and an
// encode() that reads each parity bit off its pivot row one data bit at a
// time. It is kept verbatim — like the other oracles in tests/support — as
// the reference the library encoder must agree with bit for bit in k, n,
// rank and every codeword (tests/ldpc_test pins this).
//
// Do not optimize this file; that is the encoder's job.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"

namespace renoc {

/// The Gauss–Jordan LdpcEncoder. Same pivot rule, data placement and
/// codewords as LdpcEncoder.
class ReferenceEncoder {
 public:
  /// Performs the one-time elimination. O(m * n * m / 64).
  explicit ReferenceEncoder(const LdpcCode& code);

  /// Data bits per codeword (n - rank(H); >= n - m).
  int k() const { return static_cast<int>(free_cols_.size()); }
  int n() const { return n_; }
  /// rank(H); the number of independent parity constraints.
  int rank() const { return static_cast<int>(pivot_cols_.size()); }

  /// Encodes `data` (size k, 0/1 values) into a codeword (size n) that
  /// satisfies every check of the original code.
  std::vector<std::uint8_t> encode(const std::vector<std::uint8_t>& data) const;

  /// Extracts the data bits back out of a codeword (inverse of the
  /// systematic placement).
  std::vector<std::uint8_t> extract_data(
      const std::vector<std::uint8_t>& codeword) const;

 private:
  using Row = std::vector<std::uint64_t>;  // bitset over n columns

  bool get(const Row& r, int col) const {
    return (r[static_cast<std::size_t>(col / 64)] >>
            (static_cast<unsigned>(col) % 64)) & 1ULL;
  }

  int n_ = 0;
  std::vector<Row> rref_rows_;   // one per pivot, in pivot order
  std::vector<int> pivot_cols_;  // pivot column of each rref row
  std::vector<int> free_cols_;   // data positions, ascending
};

}  // namespace renoc
