// Sparse linear algebra for the thermal RC solver.
//
// The HotSpot-style networks built by build_rc_network() are structurally
// sparse: every grid node couples to at most seven neighbours (four lateral,
// up to two vertical, one periphery), and only a handful of package nodes
// (sink center, trapezoids, convection) act as high-degree hubs. A dense LU
// over such a matrix is O(n^3) and dominates wall-clock from a few hundred
// nodes on; the CSR + sparse-LDL^T pair below brings factor and solve down
// to roughly O(n * b^2) and O(nnz(L)) where b is the reordered bandwidth of
// the grid part (a few grid rows), independent of how the hubs fan out.
// It is the only way the library solves a thermal network, at every size.
//
// Assembly is triplet-based (duplicate entries sum, matching the stamping
// idiom of circuit assembly), the factorization is an up-looking LDL^T with
// an exact elimination-tree symbolic pass, and the default ordering is a
// reverse Cuthill-McKee pass over the low-degree grid nodes with the hub
// nodes pushed last so their dense rows cannot poison the band. The
// triangular sweeps are plain scalar loops; the co-simulation's step
// kernel runs them over several interleaved columns at once.
#pragma once

#include <cstddef>
#include <vector>

namespace renoc {

/// One (row, col, value) contribution to a sparse matrix. Duplicate
/// coordinates are summed during assembly, so callers can stamp element
/// contributions independently.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Immutable sparse matrix in compressed sparse row (CSR) form.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assembles a rows x cols matrix from triplets, summing duplicates.
  /// Entries that sum to zero are kept (they are structural nonzeros).
  static SparseMatrix from_triplets(int rows, int cols,
                                    const std::vector<Triplet>& triplets);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Number of stored entries.
  int nnz() const { return static_cast<int>(col_idx_.size()); }

  /// Returns a copy with d[i] added to diagonal entry (i, i). Every
  /// diagonal entry must already be stored (true for any conductance or
  /// step matrix assembled by stamping).
  SparseMatrix plus_diagonal(const std::vector<double>& d) const;

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return vals_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_;   // size rows_ + 1
  std::vector<int> col_idx_;   // size nnz, ascending within each row
  std::vector<double> vals_;   // size nnz
};

/// Fill-reducing ordering for stack-structured RC networks: reverse
/// Cuthill-McKee over the nodes of degree <= `hub_degree`, then the hub
/// nodes (degree > hub_degree) appended last in ascending-degree order.
/// Returns perm with perm[k] = original index eliminated at step k.
///
/// Grid nodes in the HotSpot stack have degree <= 8, while the sink center
/// couples to every under-die spreader node; eliminating such hubs last
/// keeps the factor's fill confined to the (small) trailing rows.
std::vector<int> bandwidth_reducing_ordering(const SparseMatrix& a,
                                             int hub_degree = 8);

/// Minimum-degree ordering on the elimination graph (quotient-graph form
/// with element absorption, deterministic smallest-index tie-breaking).
/// On the refined HotSpot stacks this roughly halves nnz(L) versus the
/// RCM ordering above — the difference between a band-shaped factor and a
/// nested-bisection-like one — which directly halves triangular-solve
/// work. Ordering cost is higher than RCM's, so it is worth paying when a
/// factorization is reused for many solves (the orbit co-simulation
/// engine of core/thermal_runtime factors once and solves tens of
/// thousands of times); bandwidth_reducing_ordering remains the default
/// for factor-dominated uses.
std::vector<int> minimum_degree_ordering(const SparseMatrix& a);

/// Sparse LDL^T factorization of a symmetric positive-definite matrix:
/// P A P^T = L D L^T with unit-diagonal L. Factor once, solve many times.
class SparseLdlt {
 public:
  /// Factors `a` using `perm` (empty = bandwidth_reducing_ordering(a)).
  /// Throws renoc::CheckError if `a` is not square, `perm` is not a valid
  /// permutation, or a pivot is not strictly positive (matrix singular or
  /// not positive definite). Only the upper triangle of `a` in the
  /// permuted order is read; `a` is assumed symmetric.
  explicit SparseLdlt(const SparseMatrix& a, std::vector<int> perm = {});

  /// Solves A x = b. Requires b.size() == n().
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves in place (x is b on entry, the solution on exit). Uses an
  /// internal scratch buffer, so it performs no allocation after the first
  /// call; like the rest of the library this is not thread-safe.
  void solve_in_place(std::vector<double>& x) const;

  /// One backward-Euler step for `width` independent columns kept in
  /// elimination order (the co-sim engine of core/thermal_runtime).
  /// `y` and `p` are slot-major n x width blocks: column j's slot k sits at
  /// [k * width + j] and holds component permutation()[k]. On exit each
  /// column of `y` holds the solution of A y_new = cd .* y + p, where `cd`
  /// is an n-vector in slot order shared by every column.
  ///
  /// The forward sweep runs by rows over a row-form copy of L (built on
  /// the first call, so factors that only solve() do not carry it). Each
  /// row's accumulator starts at cd[k] * y + p, fusing in the
  /// right-hand-side build, and subtracts in ascending column order — the
  /// order a column-oriented scatter applies them, so no rounding changes.
  /// The backward sweep fuses D^{-1} (as a reciprocal) and splits each dot
  /// product over four accumulators, so results drift from solve() only in
  /// the last bits (~1e-15 relative). Each column performs the same
  /// operations in the same order at any width, so a column is
  /// bit-identical to a width-1 call on it; widths up to 8 run as one
  /// unrolled group, wider blocks in groups of 8. No allocation after the
  /// first call; not thread-safe, like solve_in_place.
  void step_permuted(const double* cd, const double* p, double* y,
                     int width) const;

  /// The fill-reducing permutation in use: permutation()[k] = original
  /// index eliminated at step k.
  const std::vector<int>& permutation() const { return perm_; }

  int n() const { return n_; }
  /// Stored entries of L strictly below the diagonal (the fill).
  int factor_nnz() const { return static_cast<int>(li_.size()); }

 private:
  /// step_permuted on columns [0, W) of a block whose rows lie `stride`
  /// doubles apart; W is a compile-time constant, so every per-column
  /// loop unrolls into W independent chains.
  template <int W>
  void step_group(const double* cd, const double* p, double* y,
                  std::size_t stride) const;
  /// Fills rp_/rc_/rx_ from the column form.
  void build_row_form() const;

  int n_ = 0;
  std::vector<int> lp_;      // column pointers of L (size n_ + 1)
  std::vector<int> li_;      // row indices of L (strictly lower part)
  std::vector<double> lx_;   // values of L
  std::vector<double> d_;    // diagonal of D
  std::vector<double> inv_d_;  // 1/d_, for step_permuted
  std::vector<int> perm_;    // perm_[k] = original index at position k
  std::vector<int> iperm_;   // inverse permutation
  // Row form of L's strict lower part, for step_permuted only.
  mutable std::vector<int> rp_;     // row pointers
  mutable std::vector<int> rc_;     // column indices, ascending per row
  mutable std::vector<double> rx_;  // values
  mutable std::vector<double> scratch_;  // permuted rhs workspace
};

}  // namespace renoc
