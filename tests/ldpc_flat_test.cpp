// Bit-exactness suite for the flat CSR decode engine.
//
// The golden min-sum decoder runs the edge-indexed kernels over LdpcCode's
// CSR slices, with q/r stored by global edge id; it must reproduce the seed
// message-passing semantics exactly — every DecodeResult field, on every
// code shape. The seed loops are preserved verbatim in
// support/reference_decoder; this suite sweeps regular and irregular codes
// and the degenerate degree-1-check path, comparing the production min-sum
// decoder against its oracle block by block at the fixed iteration budget.
// The CSR layout itself (offsets/edge ids/neighbors) is pinned by
// structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "support/reference_decoder.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

LdpcCode regular_code(int n = 240, std::uint64_t seed = 3) {
  Rng rng(seed);
  return LdpcCode::make_regular(n, 3, 6, rng);
}

LdpcCode irregular_code(std::uint64_t seed = 9) {
  // Mixed variable degrees 1..4, and check degrees that need not agree.
  std::vector<int> degrees;
  for (int v = 0; v < 120; ++v) degrees.push_back(1 + v % 4);
  Rng rng(seed);
  return LdpcCode::make_irregular(degrees, 5, rng);
}

/// A tiny irregular code whose construction forces a degree-1 check:
/// 3 sockets over m=2 checks striped s%m gives check 1 a single edge.
LdpcCode degree_one_check_code() {
  Rng rng(17);
  return LdpcCode::make_irregular({1, 1, 1}, 2, rng);
}

std::vector<std::int16_t> noisy_block(const LdpcCode& code, double ebn0_db,
                                      std::uint64_t seed) {
  const LdpcEncoder encoder(code);
  Rng rng(seed);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(ebn0_db, 0.5, rng.split());
  return quantize_llrs(channel.transmit(encoder.encode(data)));
}

void expect_results_equal(const DecodeResult& flat, const DecodeResult& ref,
                          const char* what) {
  EXPECT_EQ(flat.hard_bits, ref.hard_bits) << what;
  EXPECT_EQ(flat.syndrome_ok, ref.syndrome_ok) << what;
  EXPECT_EQ(flat.iterations_run, ref.iterations_run) << what;
}

// --- CSR layout invariants -------------------------------------------------

TEST(FlatLayoutTest, OffsetsPartitionEdgeArrays) {
  for (const LdpcCode& code : {regular_code(), irregular_code()}) {
    ASSERT_EQ(code.var_offsets().size(),
              static_cast<std::size_t>(code.n()) + 1);
    ASSERT_EQ(code.check_offsets().size(),
              static_cast<std::size_t>(code.m()) + 1);
    EXPECT_EQ(code.var_offsets().front(), 0);
    EXPECT_EQ(code.var_offsets().back(), code.edge_count());
    EXPECT_EQ(code.check_offsets().front(), 0);
    EXPECT_EQ(code.check_offsets().back(), code.edge_count());
    for (int v = 0; v < code.n(); ++v)
      EXPECT_LE(code.var_offsets()[static_cast<std::size_t>(v)],
                code.var_offsets()[static_cast<std::size_t>(v) + 1]);
  }
}

TEST(FlatLayoutTest, EdgeViewMatchesRawArrays) {
  const LdpcCode code = irregular_code();
  for (int v = 0; v < code.n(); ++v) {
    const EdgeView view = code.var_edges(v);
    const int begin = code.var_offsets()[static_cast<std::size_t>(v)];
    ASSERT_EQ(static_cast<int>(view.size()),
              code.var_offsets()[static_cast<std::size_t>(v) + 1] - begin);
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view[i].other,
                code.var_neighbors()[static_cast<std::size_t>(begin) + i]);
      EXPECT_EQ(view[i].edge,
                code.var_edge_ids()[static_cast<std::size_t>(begin) + i]);
    }
  }
}

// --- Min-sum bit-exactness -------------------------------------------------

TEST(FlatMinSumTest, RegularCodeMatchesSeed) {
  const LdpcCode code = regular_code();
  const MinSumDecoder flat(code, 10);
  for (double ebn0 : {0.5, 2.0, 4.0}) {
    for (std::uint64_t seed = 21; seed < 26; ++seed) {
      const auto llrs = noisy_block(code, ebn0, seed);
      expect_results_equal(flat.decode(llrs),
                           reference_minsum_decode(code, 10, false, llrs),
                           "regular min-sum");
    }
  }
}

TEST(FlatMinSumTest, IrregularCodeMatchesSeed) {
  const LdpcCode code = irregular_code();
  ASSERT_NE(code.var_degree(0), code.var_degree(1));  // degrees really mix
  const MinSumDecoder flat(code, 8);
  for (std::uint64_t seed = 31; seed < 36; ++seed) {
    const auto llrs = noisy_block(code, 1.5, seed);
    expect_results_equal(flat.decode(llrs),
                         reference_minsum_decode(code, 8, false, llrs),
                         "irregular min-sum");
  }
}

TEST(FlatMinSumTest, DegreeOneCheckMatchesSeed) {
  const LdpcCode code = degree_one_check_code();
  int min_deg = code.check_degree(0);
  for (int c = 1; c < code.m(); ++c)
    min_deg = std::min(min_deg, code.check_degree(c));
  ASSERT_EQ(min_deg, 1);  // the degenerate kernel path is actually hit
  // Hand-built LLR patterns: the code is too small for the channel helper.
  const std::vector<std::vector<std::int16_t>> patterns = {
      {50, -3, 7}, {-1, -1, -1}, {127, -127, 0}, {0, 0, 0}, {-12, 90, -4}};
  const MinSumDecoder flat(code, 5);
  for (const auto& llrs : patterns)
    expect_results_equal(flat.decode(llrs),
                         reference_minsum_decode(code, 5, false, llrs),
                         "degree-1 check min-sum");
}

TEST(FlatMinSumTest, WorkspaceReuseIsStateless) {
  // Decoding B after A must give the same result as decoding B fresh —
  // the per-decoder workspace carries no state across calls.
  const LdpcCode code = regular_code();
  const auto a = noisy_block(code, 1.0, 41);
  const auto b = noisy_block(code, 3.0, 42);
  const MinSumDecoder decoder(code, 10);
  DecodeResult reused;
  decoder.decode_into(a, reused);
  decoder.decode_into(b, reused);
  const MinSumDecoder fresh(code, 10);
  expect_results_equal(reused, fresh.decode(b), "workspace reuse");
}

}  // namespace
}  // namespace renoc
