// Unit and property tests for the util module — RNG, running statistics,
// and table rendering — and for the dense matrix/LU test oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace renoc {
namespace {

TEST(CheckTest, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(RENOC_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithLocation) {
  try {
    RENOC_CHECK_MSG(false, "extra " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("extra 42"), std::string::npos);
  }
}

TEST(MatrixTest, IdentityTimesVector) {
  const Matrix id = Matrix::identity(4);
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_EQ(id.mul(x), x);
}

TEST(MatrixTest, MulMatchesManualComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> x{1, 0, -1};
  const std::vector<double> y = a.mul(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(MatrixTest, MatrixMatrixProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = a.mul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, AtThrowsOutOfBounds) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), CheckError);
  EXPECT_THROW(a.at(0, 2), CheckError);
}

TEST(MatrixTest, SymmetryDetection) {
  Matrix a(2, 2);
  a(0, 1) = 3.0;
  a(1, 0) = 3.0;
  EXPECT_TRUE(a.is_symmetric(1e-12));
  a(1, 0) = 3.1;
  EXPECT_FALSE(a.is_symmetric(1e-12));
  EXPECT_TRUE(a.is_symmetric(0.2));
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = 1;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 2;
  a(2, 0) = 1; a(2, 1) = 0; a(2, 2) = 0;
  const LuFactorization lu(a);
  const std::vector<double> b{4, 5, 6};
  const std::vector<double> x = lu.solve(b);
  const std::vector<double> back = a.mul(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-10);
}

TEST(LuTest, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const LuFactorization lu(a);
  const std::vector<double> x = lu.solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(LuTest, SolveInPlaceMatchesSolveRepeatedly) {
  // The permutation scratch is reused across calls; results must not
  // depend on call history.
  Matrix a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 5; a(1, 2) = 2;
  a(2, 0) = 0; a(2, 1) = 2; a(2, 2) = 6;
  const LuFactorization lu(a);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> b{1.0 + rep, -2.0, 3.0 * rep};
    const std::vector<double> x = lu.solve(b);
    std::vector<double> y = b;
    lu.solve_in_place(y);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
  }
}

TEST(LuTest, SingularMatrixThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, CheckError);
}

TEST(LuTest, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, CheckError);
}

// Property sweep: random SPD-ish systems solve to high accuracy.
class LuPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuPropertyTest, RandomDiagonallyDominantSystems) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      const double v = rng.next_double() - 0.5;
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = v;
      row_sum += std::fabs(v);
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) =
        row_sum + 1.0;  // strict diagonal dominance -> nonsingular
  }
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.next_double() * 10 - 5;
  const std::vector<double> b = a.mul(x_true);
  const LuFactorization lu(a);
  const std::vector<double> x = lu.solve(b);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW(rng.next_below(0), CheckError);
}

TEST(RngTest, NextBelowApproxUniform) {
  Rng rng(11);
  int counts[5] = {0};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.next_below(5)];
  for (int c : counts) {
    EXPECT_GT(c, draws / 5 - 600);
    EXPECT_LT(c, draws / 5 + 600);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, SplitStreamsAreIndependentlySeeded) {
  Rng parent(3);
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  Rng parent2(3);
  parent2.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == parent2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

// Exact stream pins. Every golden record and thread-invariance guarantee
// in the repo assumes mix64 / derive_stream_seed / xoshiro256** produce
// these exact bits on every platform; an innocent-looking "cleanup" of the
// mixing chain (reordered xors, a narrowed intermediate, a changed rotate)
// silently invalidates all of them. The literals were generated by this
// implementation and are frozen here as the contract.
TEST(RngTest, Mix64StreamIsPinned) {
  EXPECT_EQ(mix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(mix64(0xdeadbeefULL), 0x4e062702ec929eeaULL);
  // Zero is the finalizer's fixed point. Harmless for stream derivation:
  // derive_stream_seed offsets by golden * (index + 1) before mixing, so
  // no (seed, index) pair ever feeds mix64 a structural zero.
  EXPECT_EQ(mix64(0), 0ULL);
}

TEST(RngTest, DerivedStreamSeedsArePinned) {
  EXPECT_EQ(derive_stream_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(derive_stream_seed(42, 1), 0x28efe333b266f103ULL);
  // Chained derivation — the ber_harness (point, block) fold.
  EXPECT_EQ(derive_stream_seed(derive_stream_seed(7, 3), 11),
            0x416231b55613c1d7ULL);
}

TEST(RngTest, Xoshiro256StreamIsPinned) {
  Rng rng(12345);
  EXPECT_EQ(rng.next_u64(), 0xbe6a36374160d49bULL);
  EXPECT_EQ(rng.next_u64(), 0x214aaa0637a688c6ULL);
  EXPECT_EQ(rng.next_u64(), 0xf69d16de9954d388ULL);
  EXPECT_EQ(rng.next_u64(), 0x0c60048c4e96e033ULL);

  Rng d(999);
  EXPECT_DOUBLE_EQ(d.next_double(), 0.085850842859195087);
  EXPECT_EQ(d.next_below(1000), 412ULL);

  Rng s(2024);
  EXPECT_EQ(s.split().next_u64(), 0xcc10795b12586980ULL);
}

TEST(StatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  Rng rng(17);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TableTest, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TableTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-1.0, 1), "-1.0");
}

}  // namespace
}  // namespace renoc
