#include "support/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"

namespace renoc {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  RENOC_CHECK_MSG(r < rows_ && c < cols_,
                  "index (" << r << "," << c << ") out of " << rows_ << "x"
                            << cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  RENOC_CHECK_MSG(r < rows_ && c < cols_,
                  "index (" << r << "," << c << ") out of " << rows_ << "x"
                            << cols_);
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::mul(const std::vector<double>& x) const {
  RENOC_CHECK(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::mul(const Matrix& b) const {
  RENOC_CHECK(cols_ == b.rows_);
  Matrix out(rows_, b.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < b.cols_; ++c) out(r, c) += a * b(k, c);
    }
  }
  return out;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

LuFactorization::LuFactorization(const Matrix& a)
    : n_(a.rows()), lu_(a), perm_(a.rows()) {
  RENOC_CHECK_MSG(a.rows() == a.cols(), "LU requires a square matrix");
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivot: find the largest magnitude in column k at/below row k.
    std::size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    RENOC_CHECK_MSG(best > 0.0, "singular matrix in LU at column " << k);
    if (pivot != k) {
      for (std::size_t c = 0; c < n_; ++c)
        std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_piv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double f = lu_(r, k) * inv_piv;
      lu_(r, k) = f;  // store L factor in place
      if (f == 0.0) continue;
      for (std::size_t c = k + 1; c < n_; ++c) lu_(r, c) -= f * lu_(k, c);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  std::vector<double> x(b);
  solve_in_place(x);
  return x;
}

void LuFactorization::solve_in_place(std::vector<double>& x) const {
  RENOC_CHECK(x.size() == n_);
  // Apply the row permutation into the reusable scratch buffer.
  scratch_.resize(n_);
  std::vector<double>& y = scratch_;
  for (std::size_t i = 0; i < n_; ++i) y[i] = x[perm_[i]];
  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * y[j];
    y[ii] = acc / lu_(ii, ii);
  }
  std::copy(y.begin(), y.end(), x.begin());
}

double LuFactorization::determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

Matrix to_dense(const SparseMatrix& a) {
  const auto uz = [](int i) { return static_cast<std::size_t>(i); };
  Matrix m(uz(a.rows()), uz(a.cols()));
  for (int r = 0; r < a.rows(); ++r)
    for (int p = a.row_ptr()[uz(r)]; p < a.row_ptr()[uz(r) + 1]; ++p)
      m(uz(r), uz(a.col_idx()[uz(p)])) += a.values()[uz(p)];
  return m;
}

}  // namespace renoc
