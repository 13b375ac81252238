// Dense linear-algebra oracle for the tests.
//
// The library solves every thermal network with the sparse LDL^T of
// util/sparse. This dense row-major matrix with a partial-pivoting LU is
// the independent reference the thermal, sparse, and util suites check it
// against: simple enough to verify by hand, with no ordering, symbolic
// pass, or fill. No cache blocking or SIMD; correctness and clarity win.
// It lives in tests/support so no library file can depend on it.
#pragma once

#include <cstddef>
#include <vector>

#include "util/sparse.hpp"

namespace renoc {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access (bounds-checked via RENOC_CHECK in debug-style builds).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked element access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = this * x. Requires x.size() == cols().
  std::vector<double> mul(const std::vector<double>& x) const;

  /// C = this * B.
  Matrix mul(const Matrix& b) const;

  /// True if the matrix equals its transpose to within tol.
  bool is_symmetric(double tol) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
///
/// Factor once, solve many times.
class LuFactorization {
 public:
  /// Factors `a`. Throws renoc::CheckError if `a` is not square or is
  /// numerically singular.
  explicit LuFactorization(const Matrix& a);

  /// Solves A x = b. Requires b.size() == n().
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves in place (x is b on entry, solution on exit). Reuses an
  /// internal scratch buffer for the row permutation, so no allocation
  /// happens after the first call; not thread-safe, like the rest of the
  /// library.
  void solve_in_place(std::vector<double>& x) const;

  std::size_t n() const { return n_; }

  /// Sign-adjusted product of U's diagonal (the determinant).
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                  // combined L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
  mutable std::vector<double> scratch_;  // permuted rhs, reused per solve
};

/// Dense copy of a sparse matrix.
Matrix to_dense(const SparseMatrix& a);

}  // namespace renoc
