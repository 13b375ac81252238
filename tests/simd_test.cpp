// Scalar-vs-SIMD agreement suite for the util/simd kernel layer.
//
// Every compiled tier (scalar always; SSE2/AVX2 when the build and CPU
// provide them) is exercised in one binary through the explicit-table
// hooks: MinSumBatchDecoder's kernels parameter and direct KernelTable
// calls for the NoC want-scan. The contract under test is bit-exactness —
// the vector kernels replicate the scalar engines' op order, so there is
// no tolerance anywhere. Dispatch plumbing (tier names, env-override
// clamping) is pinned too; the ctest registrations add
// RENOC_SIMD_TIER-forced instances of this suite so the env path runs in
// every config.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "noc/arb_kernels.hpp"
#include "noc/routing.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace renoc {
namespace {

std::vector<const simd::KernelTable*> compiled_tables() {
  std::vector<const simd::KernelTable*> tables;
  for (int t = 0; t < simd::kTierCount; ++t)
    if (const simd::KernelTable* table =
            simd::kernel_table(static_cast<simd::Tier>(t)))
      tables.push_back(table);
  return tables;
}

// --- Dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, TierNamesRoundTrip) {
  for (int t = 0; t < simd::kTierCount; ++t) {
    const simd::Tier tier = static_cast<simd::Tier>(t);
    simd::Tier parsed = simd::Tier::kAvx2;
    ASSERT_TRUE(simd::parse_tier(simd::tier_name(tier), parsed));
    EXPECT_EQ(parsed, tier);
  }
  simd::Tier out = simd::Tier::kScalar;
  EXPECT_FALSE(simd::parse_tier(nullptr, out));
  EXPECT_FALSE(simd::parse_tier("", out));
  EXPECT_FALSE(simd::parse_tier("AVX2", out));
  EXPECT_FALSE(simd::parse_tier("avx512", out));
}

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  const simd::KernelTable* scalar = simd::kernel_table(simd::Tier::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->tier, simd::Tier::kScalar);
  EXPECT_NE(scalar->ldpc_batch_vn, nullptr);
  EXPECT_NE(scalar->noc_want_scan, nullptr);
}

TEST(SimdDispatch, ActiveTierIsCompiledAndHonorsEnvClamp) {
  const simd::KernelTable& active = simd::kernels();
  EXPECT_EQ(&active, simd::kernel_table(active.tier))
      << "active table must be the compiled table of its tier";
  EXPECT_EQ(std::string(simd::active_tier_name()),
            std::string(simd::tier_name(active.tier)));
  // When the ctest env-forced variants set RENOC_SIMD_TIER to a parsable
  // tier, the override clamps downward: the active tier never exceeds it.
  simd::Tier requested = simd::Tier::kScalar;
  if (simd::parse_tier(std::getenv("RENOC_SIMD_TIER"), requested)) {
    EXPECT_LE(static_cast<int>(simd::active_tier()),
              static_cast<int>(requested));
  }
}

// --- AlignedVec -------------------------------------------------------------

TEST(AlignedVec, AlignmentSizesAndZeroTail) {
  AlignedVec<std::int32_t> v;
  v.assign(13, 7);
  EXPECT_EQ(v.size(), 13u);
  EXPECT_EQ(v.padded_size(), 16u);  // 64 bytes / 4 = 16-element blocks
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(v[i], 7);
  for (std::size_t i = 13; i < v.padded_size(); ++i) EXPECT_EQ(v.data()[i], 0);

  // Tail stays zero after a smaller re-assign (kernels read whole groups).
  v.assign(3, -1);
  EXPECT_EQ(v.padded_size(), 16u);
  for (std::size_t i = 3; i < v.padded_size(); ++i) EXPECT_EQ(v.data()[i], 0);

  AlignedVec<double> d;
  d.resize(9);
  EXPECT_EQ(d.padded_size(), 16u);  // 64 / 8 = 8-element blocks
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
  for (std::size_t i = 0; i < d.padded_size(); ++i) EXPECT_EQ(d.data()[i], 0.0);
}

// --- Batched LDPC decode ----------------------------------------------------

std::vector<std::int16_t> noisy_block(const LdpcCode& code, double ebn0_db,
                                      std::uint64_t seed) {
  const LdpcEncoder encoder(code);
  Rng rng(seed);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(ebn0_db, 0.5, rng.split());
  return quantize_llrs(channel.transmit(encoder.encode(data)));
}

/// Decodes `batch` noisy blocks with the scalar decoder and with the batch
/// decoder on `table`, demanding every DecodeResult field match per lane.
void expect_batch_matches_scalar(const LdpcCode& code,
                                 const simd::KernelTable* table, int batch,
                                 int max_batch, int iterations,
                                 bool early_exit, std::uint64_t seed) {
  const MinSumDecoder scalar(code, iterations, early_exit);
  const MinSumBatchDecoder batched(code, iterations, early_exit, max_batch,
                                   table);
  std::vector<std::vector<std::int16_t>> llrs;
  std::vector<const std::int16_t*> ptrs;
  for (int b = 0; b < batch; ++b) {
    llrs.push_back(noisy_block(code, 1.0 + 0.5 * b, seed + 101 * static_cast<std::uint64_t>(b)));
    ptrs.push_back(llrs.back().data());
  }
  std::vector<DecodeResult> got(static_cast<std::size_t>(batch));
  batched.decode_batch_into(ptrs.data(), batch, got.data());
  for (int b = 0; b < batch; ++b) {
    const DecodeResult want = scalar.decode(llrs[static_cast<std::size_t>(b)]);
    const DecodeResult& lane = got[static_cast<std::size_t>(b)];
    SCOPED_TRACE("tier " + std::string(simd::tier_name(table->tier)) +
                 " lane " + std::to_string(b) + "/" + std::to_string(batch) +
                 (early_exit ? " early" : " fixed"));
    EXPECT_EQ(lane.hard_bits, want.hard_bits);
    EXPECT_EQ(lane.syndrome_ok, want.syndrome_ok);
    EXPECT_EQ(lane.iterations_run, want.iterations_run);
  }
}

TEST(SimdBatchDecode, RegularCodeEveryTierBatchAndEarlyMode) {
  Rng rng(3);
  const LdpcCode code = LdpcCode::make_regular(240, 3, 6, rng);
  for (const simd::KernelTable* table : compiled_tables())
    for (const bool early : {false, true})
      for (const int batch : {1, 2, 3, 5, 8})
        expect_batch_matches_scalar(code, table, batch, 8, 8, early,
                                    1000 + static_cast<std::uint64_t>(batch));
}

TEST(SimdBatchDecode, CheckDegreeSweep) {
  // Regular codes with check degrees 4..8 (var degree 2..3): exercises the
  // two-min tracking at every unrolled degree the scalar engine dispatches.
  struct Shape {
    int n, wc, wr;
  };
  for (const Shape s : {Shape{240, 2, 4}, Shape{240, 3, 5}, Shape{240, 3, 6},
                        Shape{280, 3, 7}, Shape{240, 3, 8}}) {
    Rng rng(11);
    const LdpcCode code = LdpcCode::make_regular(s.n, s.wc, s.wr, rng);
    for (const simd::KernelTable* table : compiled_tables())
      expect_batch_matches_scalar(code, table, 8, 8, 6, true,
                                  static_cast<std::uint64_t>(s.wr));
  }
}

TEST(SimdBatchDecode, IrregularAndDegreeOneCheck) {
  // Mixed var degrees 1..8 hit the generic (offset-driven) kernels; the
  // {1,1,1}/wr=2 code forces a degree-1 check (empty extrinsic min).
  std::vector<int> degrees;
  for (int v = 0; v < 128; ++v) degrees.push_back(1 + v % 8);
  Rng rng(9);
  const LdpcCode irregular = LdpcCode::make_irregular(degrees, 6, rng);
  Rng rng2(17);
  const LdpcCode deg1 = LdpcCode::make_irregular({1, 1, 1}, 2, rng2);
  for (const simd::KernelTable* table : compiled_tables()) {
    for (const bool early : {false, true}) {
      expect_batch_matches_scalar(irregular, table, 7, 8, 8, early, 5);
      expect_batch_matches_scalar(deg1, table, 3, 4, 4, early, 6);
    }
  }
}

TEST(SimdBatchDecode, WideBatchWithRemainderLanes) {
  // max_batch 12 -> stride 16: two lane groups at every width, with the
  // last group half phantom. Batch 9 leaves live-lane remainders too.
  Rng rng(3);
  const LdpcCode code = LdpcCode::make_regular(96, 3, 6, rng);
  for (const simd::KernelTable* table : compiled_tables())
    expect_batch_matches_scalar(code, table, 9, 12, 10, true, 77);
}

TEST(SimdBatchDecode, ActiveTierDefaultTable) {
  // nullptr kernels = simd::kernels(): the production configuration.
  Rng rng(3);
  const LdpcCode code = LdpcCode::make_regular(240, 3, 6, rng);
  const MinSumBatchDecoder batched(code, 8, true, 4);
  EXPECT_EQ(batched.tier(), simd::active_tier());
  expect_batch_matches_scalar(code, &simd::kernels(), 4, 4, 8, true, 42);
}

// --- NoC want-scan ----------------------------------------------------------

TEST(SimdWantScan, MatchesScalarReferenceEveryTier) {
  // Synthetic mirrors for an 8x8 mesh (320 ports, already lane-aligned)
  // plus a 13-node case that needs pad lanes. Routes include unreachable
  // (0xFF) entries; the scalar reference below is the fabric's inline
  // computation verbatim.
  for (const int nodes : {64, 13}) {
    const int ports = nodes * kDirectionCount;
    const int padded = (ports + 7) / 8 * 8;
    AlignedVec<int> fifo_size, head_dst, route_base, want;
    AlignedVec<std::uint8_t> head_is_head;
    fifo_size.assign(static_cast<std::size_t>(padded), 0);
    head_dst.assign(static_cast<std::size_t>(padded), 0);
    route_base.assign(static_cast<std::size_t>(padded), 0);
    want.assign(static_cast<std::size_t>(padded), 0);
    head_is_head.assign(static_cast<std::size_t>(padded), 0);
    std::vector<std::uint8_t> table(
        static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) + 4,
        0);
    Rng rng(static_cast<std::uint64_t>(nodes));
    for (std::size_t i = 0; i + 4 < table.size(); ++i) {
      const std::uint64_t roll = rng.next_below(6);
      table[i] = roll == 5 ? kUnreachableRoute
                           : static_cast<std::uint8_t>(roll);
    }
    for (int f = 0; f < ports; ++f) {
      fifo_size[static_cast<std::size_t>(f)] =
          static_cast<int>(rng.next_below(3));
      head_is_head[static_cast<std::size_t>(f)] =
          static_cast<std::uint8_t>(rng.next_below(2));
      head_dst[static_cast<std::size_t>(f)] =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes)));
      route_base[static_cast<std::size_t>(f)] =
          (f / kDirectionCount) * nodes;
    }

    std::vector<int> expect(static_cast<std::size_t>(padded), -1);
    for (int f = 0; f < ports; ++f) {
      const std::size_t fz = static_cast<std::size_t>(f);
      if (fifo_size[fz] > 0 && head_is_head[fz] != 0) {
        const std::uint8_t out = table[static_cast<std::size_t>(
            route_base[fz] + head_dst[fz])];
        expect[fz] = out == kUnreachableRoute ? -1 : static_cast<int>(out);
      }
    }

    for (const simd::KernelTable* kt : compiled_tables()) {
      kt->noc_want_scan(fifo_size.data(), head_is_head.data(),
                        head_dst.data(), route_base.data(), table.data(),
                        padded, want.data());
      for (int f = 0; f < padded; ++f)
        ASSERT_EQ(want[static_cast<std::size_t>(f)],
                  expect[static_cast<std::size_t>(f)])
            << "tier " << simd::tier_name(kt->tier) << " nodes " << nodes
            << " port " << f;
    }
  }
}

}  // namespace
}  // namespace renoc
