// Unit and property tests for the sparse module: CSR assembly, the
// fill-reducing ordering, and the sparse LDL^T factorization. Entries and
// products are read through the dense oracle's to_dense().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"

namespace renoc {
namespace {

// --- CSR assembly ------------------------------------------------------

TEST(SparseMatrixTest, TripletAssemblySumsDuplicates) {
  // The stamping idiom pushes the same coordinate several times.
  const std::vector<Triplet> trips{
      {0, 0, 1.0}, {0, 0, 2.5}, {1, 2, -1.0}, {0, 1, 4.0}, {1, 2, 0.5}};
  const SparseMatrix m = SparseMatrix::from_triplets(2, 3, trips);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);  // (0,0), (0,1), (1,2) after merging
  const Matrix d = to_dense(m);
  EXPECT_DOUBLE_EQ(d.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d.at(1, 2), -0.5);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);  // unstored entry reads as zero
}

TEST(SparseMatrixTest, EmptyRowsAndMatrix) {
  const SparseMatrix empty = SparseMatrix::from_triplets(3, 3, {});
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_DOUBLE_EQ(to_dense(empty).at(1, 1), 0.0);
  // Row 1 has no entries; row_ptr must still be monotone.
  const SparseMatrix m =
      SparseMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {2, 2, 2.0}});
  EXPECT_EQ(m.row_ptr()[1], m.row_ptr()[2]);
  const std::vector<double> y = to_dense(m).mul({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(SparseMatrixTest, OutOfRangeTripletRejected) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), CheckError);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), CheckError);
}

TEST(SparseMatrixTest, PlusDiagonalAddsAndValidates) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 2.0}, {0, 1, -1.0}});
  const Matrix shifted = to_dense(m.plus_diagonal({10.0, 20.0}));
  EXPECT_DOUBLE_EQ(shifted.at(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(shifted.at(1, 1), 22.0);
  EXPECT_DOUBLE_EQ(shifted.at(0, 1), -1.0);
  // A missing structural diagonal is a caller bug, not a silent no-op.
  const SparseMatrix no_diag =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  EXPECT_THROW(no_diag.plus_diagonal({1.0, 1.0}), CheckError);
}

// --- Ordering -----------------------------------------------------------

/// Grid Laplacian plus a hub node coupled to every grid node — the
/// structural skeleton of the RC networks (sink center = hub).
SparseMatrix grid_with_hub(int side) {
  const int n = side * side + 1;
  const int hub = side * side;
  std::vector<Triplet> trips;
  const auto stamp = [&](int a, int b) {
    trips.push_back({a, a, 1.0});
    trips.push_back({b, b, 1.0});
    trips.push_back({a, b, -1.0});
    trips.push_back({b, a, -1.0});
  };
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const int i = y * side + x;
      if (x + 1 < side) stamp(i, i + 1);
      if (y + 1 < side) stamp(i, i + side);
      stamp(i, hub);
    }
  }
  for (int i = 0; i < n; ++i) trips.push_back({i, i, 1.0});  // make it PD
  return SparseMatrix::from_triplets(n, n, trips);
}

TEST(OrderingTest, IsPermutationWithHubLast) {
  const SparseMatrix a = grid_with_hub(6);
  const std::vector<int> perm = bandwidth_reducing_ordering(a);
  ASSERT_EQ(perm.size(), 37u);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 37; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  // The hub (degree 36) must be eliminated last.
  EXPECT_EQ(perm.back(), 36);
}

TEST(OrderingTest, HubLastBoundsFill) {
  // With the hub last, fill stays near the grid band; a natural ordering
  // that eliminates the hub early would couple everything to everything.
  const SparseMatrix a = grid_with_hub(8);
  const SparseLdlt chol(a);
  // Loose sanity bound: fill should be O(n * side), far below dense n^2/2.
  EXPECT_LT(chol.factor_nnz(), 65 * 65 / 4);
}

// --- LDL^T factorization ------------------------------------------------

TEST(SparseLdltTest, SolvesSmallSpdSystem) {
  // [4 1; 1 3] x = b, hand-checkable.
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}});
  const SparseLdlt chol(a);
  const std::vector<double> x = chol.solve({1.0, 2.0});
  const std::vector<double> back = to_dense(a).mul(x);
  EXPECT_NEAR(back[0], 1.0, 1e-12);
  EXPECT_NEAR(back[1], 2.0, 1e-12);
}

TEST(SparseLdltTest, SingularMatrixRejected) {
  // Rank-1 symmetric PSD matrix: pivot hits exactly zero.
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(SparseLdlt{a}, CheckError);
  // All-zero matrix.
  const SparseMatrix z = SparseMatrix::from_triplets(3, 3, {});
  EXPECT_THROW(SparseLdlt{z}, CheckError);
}

TEST(SparseLdltTest, IndefiniteMatrixRejected) {
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  EXPECT_THROW(SparseLdlt{a}, CheckError);
}

TEST(SparseLdltTest, NonSquareAndBadPermRejected) {
  const SparseMatrix rect = SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(SparseLdlt{rect}, CheckError);
  const SparseMatrix ok =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(SparseLdlt(ok, {0, 0}), CheckError);   // not a permutation
  EXPECT_THROW(SparseLdlt(ok, {0, 1, 2}), CheckError);  // wrong size
}

TEST(SparseLdltTest, SolveInPlaceMatchesSolveRepeatedly) {
  const SparseMatrix a = grid_with_hub(4);
  const SparseLdlt chol(a);
  // The internal scratch is reused across calls; results must not drift.
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> b(17, 0.0);
    b[static_cast<std::size_t>(rep)] = 1.0 + rep;
    const std::vector<double> x = chol.solve(b);
    std::vector<double> y = b;
    chol.solve_in_place(y);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
  }
}

// Property sweep: random sparse SPD systems match the dense LU to high
// accuracy, with and without the default fill-reducing ordering.
class SparseLdltPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseLdltPropertyTest, MatchesDenseLuOnRandomSpdSystems) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 104729);
  // Random symmetric pattern, diagonally dominant values -> SPD.
  std::vector<Triplet> trips;
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  const auto un = static_cast<std::uint64_t>(n);
  for (int k = 0; k < 4 * n; ++k) {
    const int r = static_cast<int>(rng.next_below(un));
    const int c = static_cast<int>(rng.next_below(un));
    if (r == c) continue;
    const double v = rng.next_double() * 2 - 1;
    trips.push_back({r, c, v});
    trips.push_back({c, r, v});
    row_sum[static_cast<std::size_t>(r)] += std::fabs(v);
    row_sum[static_cast<std::size_t>(c)] += std::fabs(v);
  }
  for (int i = 0; i < n; ++i)
    trips.push_back({i, i, row_sum[static_cast<std::size_t>(i)] + 1.0});
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, trips);

  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.next_double() * 10 - 5;
  const std::vector<double> b = to_dense(a).mul(x_true);

  const LuFactorization lu(to_dense(a));
  const std::vector<double> x_lu = lu.solve(b);
  const SparseLdlt default_order(a);
  const std::vector<double> x_default = default_order.solve(b);
  std::vector<int> natural(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) natural[static_cast<std::size_t>(i)] = i;
  const SparseLdlt natural_order(a, natural);
  const std::vector<double> x_natural = natural_order.solve(b);
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_NEAR(x_default[u], x_true[u], 1e-8);
    EXPECT_NEAR(x_natural[u], x_true[u], 1e-8);
    EXPECT_NEAR(x_default[u], x_lu[u], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLdltPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

// --- Minimum-degree ordering -------------------------------------------

TEST(OrderingTest, MinimumDegreeIsPermutation) {
  const SparseMatrix a = grid_with_hub(6);
  const std::vector<int> perm = minimum_degree_ordering(a);
  ASSERT_EQ(perm.size(), 37u);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 37; ++i)
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  // The hub has the largest degree by far and must go last.
  EXPECT_EQ(perm.back(), 36);
}

TEST(OrderingTest, MinimumDegreeReducesFillVersusRcm) {
  // On grid-plus-hub graphs (the shape of every refined RC network), the
  // minimum-degree ordering must beat the band-shaped RCM factor — this
  // fill gap is the engine's single largest speedup source, so a quality
  // regression here is a performance regression there.
  const SparseMatrix a = grid_with_hub(16);
  const SparseLdlt rcm(a);
  const SparseLdlt md(a, minimum_degree_ordering(a));
  EXPECT_LT(md.factor_nnz(), rcm.factor_nnz());
  // And it must still solve correctly.
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 0.0);
  b[3] = 2.0;
  const std::vector<double> x_rcm = rcm.solve(b);
  const std::vector<double> x_md = md.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(x_rcm[i], x_md[i], 1e-10);
}

TEST(OrderingTest, MinimumDegreeHandlesTinyMatrices) {
  const SparseMatrix one =
      SparseMatrix::from_triplets(1, 1, {{0, 0, 2.0}});
  EXPECT_EQ(minimum_degree_ordering(one), std::vector<int>{0});
  const SparseMatrix diag = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
  const std::vector<int> perm = minimum_degree_ordering(diag);
  EXPECT_EQ(perm.size(), 3u);  // disconnected nodes, any order valid
  EXPECT_NO_THROW(SparseLdlt(diag, minimum_degree_ordering(diag)));
}

// --- Streamed solves ---------------------------------------------------

TEST(SparseLdltTest, StepPermutedColumnsMatchWidthOneAndSolve) {
  // The co-simulation's fused step kernel, on both orderings. At every
  // width up to the unroll cap (8) and at 11 (a group of 8, then 3), each
  // column of the block equals the width-1 step of that column bit for
  // bit; the width-1 step equals solve() of the fused right-hand side
  // cd .* y + p within 1e-10.
  const SparseMatrix a = grid_with_hub(6);
  const int n = a.rows();
  const auto un = static_cast<std::size_t>(n);
  constexpr int kMaxWidth = 11;
  // Column j's previous state and power at slot k.
  const auto state_at = [](std::size_t k, int j) {
    return std::sin(0.7 * static_cast<double>(k) + j) + 2.0;
  };
  const auto power_at = [](std::size_t k, int j) {
    return std::cos(0.3 * static_cast<double>(k) - 0.9 * j) + 1.5;
  };
  std::vector<double> cd(un);
  for (std::size_t k = 0; k < un; ++k)
    cd[k] = 0.5 + 0.01 * static_cast<double>(k);

  for (const bool use_md : {false, true}) {
    const SparseLdlt chol =
        use_md ? SparseLdlt(a, minimum_degree_ordering(a)) : SparseLdlt(a);
    const std::vector<int>& perm = chol.permutation();

    std::vector<std::vector<double>> lone(kMaxWidth);
    for (int j = 0; j < kMaxWidth; ++j) {
      std::vector<double> y(un), p(un), b(un);
      for (std::size_t k = 0; k < un; ++k) {
        y[k] = state_at(k, j);
        p[k] = power_at(k, j);
        b[static_cast<std::size_t>(perm[k])] = cd[k] * y[k] + p[k];
      }
      chol.step_permuted(cd.data(), p.data(), y.data(), 1);
      const std::vector<double> x = chol.solve(b);
      for (std::size_t k = 0; k < un; ++k)
        EXPECT_NEAR(y[k], x[static_cast<std::size_t>(perm[k])], 1e-10)
            << "width-1 step must match solve() (md=" << use_md << ")";
      lone[static_cast<std::size_t>(j)] = y;
    }

    for (const int width : {1, 2, 3, 4, 5, 6, 7, 8, kMaxWidth}) {
      const auto w = static_cast<std::size_t>(width);
      std::vector<double> y(un * w), p(un * w);
      for (std::size_t k = 0; k < un; ++k)
        for (int j = 0; j < width; ++j) {
          y[k * w + static_cast<std::size_t>(j)] = state_at(k, j);
          p[k * w + static_cast<std::size_t>(j)] = power_at(k, j);
        }
      chol.step_permuted(cd.data(), p.data(), y.data(), width);
      for (int j = 0; j < width; ++j)
        for (std::size_t k = 0; k < un; ++k)
          ASSERT_EQ(y[k * w + static_cast<std::size_t>(j)],
                    lone[static_cast<std::size_t>(j)][k])
              << "width " << width << " column " << j << " slot " << k
              << " (md=" << use_md << ")";
    }
  }
}

}  // namespace
}  // namespace renoc
