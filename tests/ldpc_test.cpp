// Tests for LDPC code construction, encoding, the channel, the fixed-point
// min-sum kernels, the golden decoder, and partitioning. The sum-product
// cases check min-sum against the seed sum-product loop in tests/support,
// and the encoder-equivalence cases hold the encoder to the Gauss–Jordan
// oracle there.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "core/chip_config.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/minsum.hpp"
#include "ldpc/partition.hpp"
#include "support/helpers.hpp"
#include "support/reference_decoder.hpp"
#include "support/reference_encoder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

LdpcCode small_code(std::uint64_t seed = 3) {
  Rng rng(seed);
  return LdpcCode::make_regular(240, 3, 6, rng);
}

TEST(CodeTest, RegularDegrees) {
  const LdpcCode code = small_code();
  EXPECT_EQ(code.n(), 240);
  EXPECT_EQ(code.m(), 120);
  EXPECT_EQ(code.edge_count(), 720);
  for (int v = 0; v < code.n(); ++v) EXPECT_EQ(code.var_degree(v), 3);
  for (int c = 0; c < code.m(); ++c) EXPECT_EQ(code.check_degree(c), 6);
}

TEST(CodeTest, EdgeIdsConsistentBetweenViews) {
  const LdpcCode code = small_code();
  // Each edge id appears exactly once on the check side and once on the
  // var side, linking the same (check, var) pair.
  std::vector<std::pair<int, int>> by_edge(
      static_cast<std::size_t>(code.edge_count()), {-1, -1});
  for (int c = 0; c < code.m(); ++c)
    for (const TannerEdge& e : code.check_edges(c)) {
      EXPECT_EQ(by_edge[static_cast<std::size_t>(e.edge)].first, -1);
      by_edge[static_cast<std::size_t>(e.edge)] = {c, e.other};
    }
  for (int v = 0; v < code.n(); ++v)
    for (const TannerEdge& e : code.var_edges(v)) {
      EXPECT_EQ(by_edge[static_cast<std::size_t>(e.edge)].first, e.other);
      EXPECT_EQ(by_edge[static_cast<std::size_t>(e.edge)].second, v);
    }
}

TEST(CodeTest, InvalidParamsRejected) {
  Rng rng(1);
  EXPECT_THROW(LdpcCode::make_regular(100, 3, 6, rng), CheckError);  // 100%6
  EXPECT_THROW(LdpcCode::make_regular(240, 1, 6, rng), CheckError);  // wc<2
  EXPECT_THROW(LdpcCode::make_regular(240, 6, 3, rng), CheckError);  // wr<=wc
}

TEST(CodeTest, AllZeroIsCodeword) {
  const LdpcCode code = small_code();
  EXPECT_TRUE(code.is_codeword(std::vector<std::uint8_t>(240, 0)));
}

TEST(CodeTest, SingleBitFlipViolatesItsChecks) {
  const LdpcCode code = small_code();
  std::vector<std::uint8_t> bits(240, 0);
  bits[17] = 1;
  EXPECT_EQ(code.syndrome_weight(bits), code.var_degree(17));
}

TEST(EncoderTest, EncodedWordsAreCodewords) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  // The oracle reads the data back from its free columns, so this also
  // checks that the encoder places the data bits there unchanged.
  const ReferenceEncoder oracle(code);
  EXPECT_GE(encoder.k(), code.n() - code.m());
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    const auto cw = encoder.encode(data);
    EXPECT_TRUE(code.is_codeword(cw)) << "trial " << trial;
    EXPECT_EQ(oracle.extract_data(cw), data);
  }
}

TEST(EncoderTest, EncodingIsLinear) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  Rng rng(6);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(encoder.k()));
  std::vector<std::uint8_t> b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(rng.next_below(2));
    b[i] = static_cast<std::uint8_t>(rng.next_below(2));
  }
  std::vector<std::uint8_t> ab(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) ab[i] = a[i] ^ b[i];
  const auto ca = encoder.encode(a);
  const auto cb = encoder.encode(b);
  const auto cab = encoder.encode(ab);
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(cab[i], ca[i] ^ cb[i]);
}

/// Holds the encoder to the Gauss–Jordan oracle on `code`: k, n, rank,
/// and the codewords of the all-zero word, the all-one word and 64 random
/// data words, bit for bit. Every codeword must also satisfy every check.
void expect_encoder_matches_oracle(const LdpcCode& code,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  const LdpcEncoder encoder(code);
  const ReferenceEncoder oracle(code);
  ASSERT_EQ(encoder.k(), oracle.k());
  ASSERT_EQ(encoder.n(), oracle.n());
  ASSERT_EQ(encoder.rank(), oracle.rank());
  const std::size_t k = static_cast<std::size_t>(encoder.k());
  std::vector<std::vector<std::uint8_t>> words = {
      std::vector<std::uint8_t>(k, 0), std::vector<std::uint8_t>(k, 1)};
  Rng rng(0xe7c0de);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t>& data = words.emplace_back(k);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto cw = encoder.encode(words[i]);
    EXPECT_TRUE(cw == oracle.encode(words[i])) << "data word " << i;
    EXPECT_TRUE(code.is_codeword(cw)) << "data word " << i;
  }
}

TEST(EncoderEquivalence, PaperConfigCodes) {
  for (const ChipConfig& cfg : all_configs()) {
    const LdpcCode code = build_chip(cfg).code;
    expect_encoder_matches_oracle(code, cfg.name);
    // A's H is rank-deficient, so elimination past the rank is covered.
    if (cfg.name == "A") {
      EXPECT_EQ(code.m(), 1023);
      EXPECT_EQ(LdpcEncoder(code).rank(), 1021);
    }
  }
}

TEST(EncoderEquivalence, SmokeConfigCodes) {
  for (const ChipConfig& cfg : paper_configs(/*smoke=*/true))
    expect_encoder_matches_oracle(build_chip(cfg).code,
                                  cfg.name + " (smoke)");
}

TEST(EncoderEquivalence, SmallAndIrregularCodes) {
  expect_encoder_matches_oracle(small_code(), "small regular");
  Rng rng(13);
  std::vector<int> degrees(240, 3);
  for (int i = 0; i < 40; ++i) degrees[static_cast<std::size_t>(i)] = 4;
  expect_encoder_matches_oracle(LdpcCode::make_irregular(degrees, 6, rng),
                                "irregular");
}

TEST(ChannelTest, NoiselessLimitPreservesSigns) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()), 1);
  const auto cw = encoder.encode(data);
  AwgnChannel channel(30.0, 0.5, Rng(8));  // essentially noise-free
  const auto llrs = channel.transmit(cw);
  for (std::size_t i = 0; i < cw.size(); ++i) {
    if (cw[i])
      EXPECT_LT(llrs[i], 0.0);
    else
      EXPECT_GT(llrs[i], 0.0);
  }
}

TEST(ChannelTest, SigmaMatchesEbn0) {
  AwgnChannel ch(0.0, 0.5, Rng(1));
  EXPECT_NEAR(ch.sigma(), 1.0, 1e-12);  // sigma^2 = 1/(2*0.5*1) = 1
}

TEST(QuantizeTest, RoundsAndSaturates) {
  const auto q = quantize_llrs({0.0, 1.0, -1.06, 100.0, -100.0}, 3, 127);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 8);
  EXPECT_EQ(q[2], -8);  // -1.06*8 = -8.48 -> rounds to -8
  EXPECT_EQ(q[3], 127);
  EXPECT_EQ(q[4], -127);
}

TEST(MinSumTest, NormalizeThreeQuarters) {
  EXPECT_EQ(minsum::normalize(8), 6);
  EXPECT_EQ(minsum::normalize(-8), -6);
  EXPECT_EQ(minsum::normalize(0), 0);
  EXPECT_EQ(minsum::normalize(1), 0);  // (3*1)>>2 = 0
}

// The kernel cases place a node's operands at permuted global edge ids,
// with a foreign edge in between, so the kernels must gather and scatter
// through `edge_ids` in slice order rather than read the arrays in order.

TEST(MinSumTest, VarUpdateExtrinsic) {
  // Slice order: edge 2 (r=5), edge 0 (r=-3), edge 3 (r=2); edge 1 is
  // another node's.
  const int edges[] = {2, 0, 3};
  const std::int16_t r[] = {-3, 99, 5, 2};
  std::int16_t q[] = {0, 55, 0, 0};
  minsum::var_update_edges(10, r, q, edges, 3);
  // total = 14; q_e = total - r_e
  EXPECT_EQ(q[2], 9);
  EXPECT_EQ(q[0], 17);
  EXPECT_EQ(q[3], 12);
  EXPECT_EQ(q[1], 55);  // not this node's edge
}

TEST(MinSumTest, CheckUpdateSignsAndMins) {
  // Slice order: edge 3 (q=10), edge 1 (q=-6), edge 0 (q=4); edge 2 would
  // change both the minimum and the sign parity if it were read.
  const int edges[] = {3, 1, 0};
  const std::int16_t q[] = {4, -6, -1, 10};
  std::int16_t r[] = {0, 0, 77, 0};
  minsum::check_update_edges(q, r, edges, 3);
  // overall sign = -, magnitudes: min1=4 (edge 0), min2=6
  // r_3 = norm(sign(-/+)=- * 4) = -3
  EXPECT_EQ(r[3], -3);
  // r_1 = norm(sign(-/-)=+ * 4) = +3
  EXPECT_EQ(r[1], 3);
  // r_0 = norm(sign(-/+)=- * min2=6) = -4
  EXPECT_EQ(r[0], -4);
  EXPECT_EQ(r[2], 77);  // not this check's edge
}

TEST(MinSumTest, CheckUpdateAllPositive) {
  const int edges[] = {1, 2, 0};
  const std::int16_t q[] = {9, 7, 9};
  std::int16_t r[3];
  minsum::check_update_edges(q, r, edges, 3);
  EXPECT_EQ(r[1], minsum::normalize(9));
  EXPECT_EQ(r[2], minsum::normalize(7));
  EXPECT_EQ(r[0], minsum::normalize(7));
}

TEST(MinSumTest, PosteriorSums) {
  const int edges[] = {3, 0, 2};
  const std::int16_t r[] = {-2, 100, 3, 1};
  EXPECT_EQ(minsum::var_posterior_edges(5, r, edges, 3), 7);
  EXPECT_EQ(minsum::var_posterior_edges(-5, r, edges, 0), -5);
}

TEST(DecoderTest, NoiselessDecodesExactly) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  Rng rng(12);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  const auto cw = encoder.encode(data);
  AwgnChannel channel(12.0, 0.5, Rng(13));
  const auto llrs = quantize_llrs(channel.transmit(cw));
  const MinSumDecoder decoder(code, 10);
  const DecodeResult res = decoder.decode(llrs);
  EXPECT_TRUE(res.syndrome_ok);
  EXPECT_EQ(res.hard_bits, cw);
}

TEST(DecoderTest, CorrectsModerateNoise) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  Rng rng(21);
  int successes = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    const auto cw = encoder.encode(data);
    AwgnChannel channel(4.0, 0.5, rng.split());
    const auto llrs = quantize_llrs(channel.transmit(cw));
    const MinSumDecoder decoder(code, 25);
    const DecodeResult res = decoder.decode(llrs);
    if (res.syndrome_ok && res.hard_bits == cw) ++successes;
  }
  EXPECT_GE(successes, trials - 2);  // 4 dB is comfortable for rate 1/2
}

TEST(DecoderTest, BerImprovesWithSnr) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  auto bit_errors_at = [&](double ebn0) {
    Rng rng(31);
    int errors = 0;
    for (int t = 0; t < 10; ++t) {
      std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
      const auto cw = encoder.encode(data);
      AwgnChannel channel(ebn0, 0.5, rng.split());
      const auto llrs = quantize_llrs(channel.transmit(cw));
      const MinSumDecoder decoder(code, 20);
      const DecodeResult res = decoder.decode(llrs);
      for (std::size_t i = 0; i < cw.size(); ++i)
        errors += res.hard_bits[i] != cw[i];
    }
    return errors;
  };
  const int low_snr = bit_errors_at(0.0);
  const int high_snr = bit_errors_at(5.0);
  EXPECT_LT(high_snr, low_snr);
  EXPECT_EQ(high_snr, 0);
}

TEST(IrregularCodeTest, DegreesMatchRequest) {
  Rng rng(9);
  std::vector<int> degrees(120, 3);
  for (int i = 0; i < 30; ++i) degrees[static_cast<std::size_t>(i)] = 5;
  const LdpcCode code = LdpcCode::make_irregular(degrees, 6, rng);
  EXPECT_EQ(code.n(), 120);
  for (int v = 0; v < code.n(); ++v)
    EXPECT_EQ(code.var_degree(v), degrees[static_cast<std::size_t>(v)]);
  // Edge totals and check degrees are consistent.
  int total = 0;
  for (int c = 0; c < code.m(); ++c) total += code.check_degree(c);
  EXPECT_EQ(total, code.edge_count());
  EXPECT_EQ(total, 120 * 3 + 30 * 2);
}

TEST(IrregularCodeTest, NoDuplicateEdges) {
  Rng rng(11);
  std::vector<int> degrees(90, 3);
  degrees[0] = 7;
  const LdpcCode code = LdpcCode::make_irregular(degrees, 5, rng);
  for (int c = 0; c < code.m(); ++c) {
    std::vector<int> vars;
    for (const TannerEdge& e : code.check_edges(c)) vars.push_back(e.other);
    std::sort(vars.begin(), vars.end());
    EXPECT_TRUE(std::adjacent_find(vars.begin(), vars.end()) == vars.end())
        << "duplicate edge at check " << c;
  }
}

TEST(IrregularCodeTest, DecodesThroughFullStack) {
  Rng rng(13);
  std::vector<int> degrees(240, 3);
  for (int i = 0; i < 40; ++i) degrees[static_cast<std::size_t>(i)] = 4;
  const LdpcCode code = LdpcCode::make_irregular(degrees, 6, rng);
  const LdpcEncoder encoder(code);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  const auto cw = encoder.encode(data);
  EXPECT_TRUE(code.is_codeword(cw));
  AwgnChannel channel(6.0, 0.5, rng.split());
  const auto llrs = quantize_llrs(channel.transmit(cw));
  const MinSumDecoder decoder(code, 20);
  const DecodeResult res = decoder.decode(llrs);
  EXPECT_EQ(res.hard_bits, cw);
}

TEST(IrregularCodeTest, BadInputsRejected) {
  Rng rng(1);
  EXPECT_THROW(LdpcCode::make_irregular({}, 6, rng), CheckError);
  EXPECT_THROW(LdpcCode::make_irregular({3, 0, 3}, 6, rng), CheckError);
  EXPECT_THROW(LdpcCode::make_irregular({3, 3}, 1, rng), CheckError);
}

TEST(SumProductTest, NoiselessDecodesExactly) {
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  Rng rng(17);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  const auto cw = encoder.encode(data);
  AwgnChannel channel(12.0, 0.5, rng.split());
  const DecodeResult res =
      reference_sum_product_decode(code, 30, true, channel.transmit(cw));
  EXPECT_TRUE(res.syndrome_ok);
  EXPECT_EQ(res.hard_bits, cw);
  EXPECT_LT(res.iterations_run, 30);  // early exit fired
}

TEST(SumProductTest, AtLeastAsStrongAsMinSum) {
  // Sum-product with exact tanh combining and unquantized inputs must not
  // lose to quantized normalized min-sum over a batch of noisy blocks.
  const LdpcCode code = small_code();
  const LdpcEncoder encoder(code);
  Rng rng(23);
  int sp_block_ok = 0, ms_block_ok = 0;
  for (int t = 0; t < 12; ++t) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    const auto cw = encoder.encode(data);
    AwgnChannel channel(2.5, 0.5, rng.split());
    const auto soft = channel.transmit(cw);
    const MinSumDecoder ms(code, 25);
    if (reference_sum_product_decode(code, 25, true, soft).hard_bits == cw)
      ++sp_block_ok;
    if (ms.decode(quantize_llrs(soft)).hard_bits == cw) ++ms_block_ok;
  }
  EXPECT_GE(sp_block_ok, ms_block_ok);
  EXPECT_GT(sp_block_ok, 6);  // and it actually decodes at 2.5 dB
}

TEST(SumProductTest, ExtremeLlrsStayFinite) {
  const LdpcCode code = small_code();
  std::vector<double> llrs(240, 1000.0);  // absurdly confident inputs
  llrs[0] = -1000.0;
  const DecodeResult res = reference_sum_product_decode(code, 10, true, llrs);
  EXPECT_EQ(res.hard_bits.size(), 240u);
  // No NaN poisoning: every decision is a valid bit.
  for (auto b : res.hard_bits) EXPECT_LE(b, 1);
}

TEST(ApportionTest, SumsExactlyAndFollowsWeights) {
  const auto counts = apportion(100, {1.0, 1.0, 2.0});
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 100);
  EXPECT_EQ(counts[2], 50);
  EXPECT_EQ(counts[0], 25);
  // Degenerate cases.
  EXPECT_EQ(apportion(0, {1.0, 2.0}), (std::vector<int>{0, 0}));
  EXPECT_THROW(apportion(10, {0.0, 0.0}), CheckError);
  EXPECT_THROW(apportion(10, {-1.0, 2.0}), CheckError);
}

TEST(ApportionTest, LargestRemainderDistribution) {
  // 10 over weights {1,1,1} -> 4/3/3 (first index wins the tie).
  const auto counts = apportion(10, {1.0, 1.0, 1.0});
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 10);
  EXPECT_EQ(counts[0], 4);
}

TEST(PartitionTest, StripedCoversEverything) {
  const LdpcCode code = small_code();
  const Partition p = make_striped_partition(code, 16);
  p.validate(code);
  std::vector<int> vn_count(16, 0);
  for (int o : p.vn_owner) ++vn_count[static_cast<std::size_t>(o)];
  for (int c : vn_count) EXPECT_EQ(c, 240 / 16);
}

TEST(PartitionTest, WeightedSkewsSizes) {
  const LdpcCode code = small_code();
  std::vector<double> w(16, 1.0);
  w[0] = 4.0;
  const Partition p = make_weighted_partition(code, w, w);
  std::vector<int> vn_count(16, 0);
  for (int o : p.vn_owner) ++vn_count[static_cast<std::size_t>(o)];
  EXPECT_GT(vn_count[0], 2 * vn_count[1]);
}

TEST(PartitionTest, EdgeOpsMatchDegreesTotals) {
  const LdpcCode code = small_code();
  const Partition p = make_striped_partition(code, 8);
  const auto ops = cluster_edge_ops(code, p);
  const std::uint64_t total =
      std::accumulate(ops.begin(), ops.end(), std::uint64_t{0});
  // VN side contributes E edges, CN side contributes E edges.
  EXPECT_EQ(total, 2ull * static_cast<std::uint64_t>(code.edge_count()));
}

TEST(PartitionTest, TrafficSymmetricAndSelfFree) {
  const LdpcCode code = small_code();
  const Partition p = make_interleaved_partition(code, 6);
  const auto traffic = cluster_traffic(code, p);
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(traffic[i][i], 0u);
    for (std::size_t j = 0; j < traffic.size(); ++j)
      EXPECT_EQ(traffic[i][j], traffic[j][i]);
  }
}

TEST(PartitionTest, InterleavedMaximizesCut) {
  // Scattering nodes round-robin produces at least as much cross-cluster
  // traffic as contiguous striping.
  const LdpcCode code = small_code();
  auto total = [&](const Partition& p) {
    std::uint64_t sum = 0;
    for (const auto& row : cluster_traffic(code, p))
      for (std::uint64_t v : row) sum += v;
    return sum;
  };
  EXPECT_GE(total(make_interleaved_partition(code, 8)),
            total(make_striped_partition(code, 8)));
}

}  // namespace
}  // namespace renoc
