// Tests for the multithreaded Monte-Carlo BER harness.
//
// The harness's design center is schedule-independence: per-block RNG
// streams are derived statelessly from (seed, point, block), each block's
// counts land in their own slot, and the fold is a plain sum, so the
// reported counts must be identical for any thread count. This suite pins
// that property, the ber_block_rng replay contract, a serial decode of
// every block as the independent oracle for every BerPoint count, and the
// config validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ldpc/ber_harness.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

struct BerFixture {
  LdpcCode code;
  LdpcEncoder encoder;

  BerFixture()
      : code([] {
          Rng rng(3);
          return LdpcCode::make_regular(240, 3, 6, rng);
        }()),
        encoder(code) {}
};

BerConfig small_config() {
  BerConfig cfg;
  cfg.ebn0_db = {1.0, 3.0};
  cfg.blocks_per_point = 10;
  cfg.iterations = 6;
  cfg.early_exit = true;
  cfg.seed = 77;
  return cfg;
}

void expect_points_equal(const std::vector<BerPoint>& a,
                         const std::vector<BerPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].blocks, b[i].blocks);
    EXPECT_EQ(a[i].bits, b[i].bits);
    EXPECT_EQ(a[i].bit_errors, b[i].bit_errors);
    EXPECT_EQ(a[i].block_errors, b[i].block_errors);
    EXPECT_EQ(a[i].iterations_total, b[i].iterations_total);
  }
}

TEST(BerHarnessTest, CountsIndependentOfThreadCount) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 1;
  const auto serial = run_ber_sweep(f.code, f.encoder, cfg);
  for (int threads : {2, 4, 7}) {
    cfg.threads = threads;
    expect_points_equal(serial, run_ber_sweep(f.code, f.encoder, cfg));
  }
}

TEST(BerHarnessTest, PointBookkeepingIsExact) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 4;
  const auto points = run_ber_sweep(f.code, f.encoder, cfg);
  ASSERT_EQ(points.size(), cfg.ebn0_db.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_DOUBLE_EQ(points[p].ebn0_db, cfg.ebn0_db[p]);
    EXPECT_EQ(points[p].blocks, cfg.blocks_per_point);
    EXPECT_EQ(points[p].bits,
              static_cast<std::int64_t>(cfg.blocks_per_point) * f.code.n());
    EXPECT_LE(points[p].block_errors, points[p].blocks);
    EXPECT_LE(points[p].bit_errors, points[p].bits);
    EXPECT_GE(points[p].iterations_total, points[p].blocks);
    EXPECT_LE(points[p].iterations_total,
              static_cast<std::int64_t>(cfg.blocks_per_point) *
                  cfg.iterations);
  }
  // More noise cannot give fewer errors on this spread (1 dB vs 3 dB).
  EXPECT_GE(points[0].bit_errors, points[1].bit_errors);
}

TEST(BerHarnessTest, BlockRngReplaysSweepBlocks) {
  // Decoding the replayed blocks serially must reproduce every count of
  // the sweep bit for bit. This serial loop is the independent oracle for
  // the sweep's per-block record and its fold, and the contract the
  // BER-under-migration example leans on to re-decode the measured blocks
  // on the NoC.
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 3;
  const auto points = run_ber_sweep(f.code, f.encoder, cfg);

  const double rate = static_cast<double>(f.encoder.k()) /
                      static_cast<double>(f.encoder.n());
  std::vector<BerPoint> replay(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const MinSumDecoder decoder(f.code, cfg.iterations, cfg.early_exit);
    BerPoint& want = replay[p];
    for (int b = 0; b < cfg.blocks_per_point; ++b) {
      Rng rng = ber_block_rng(cfg.seed, static_cast<int>(p), b);
      std::vector<std::uint8_t> data(static_cast<std::size_t>(f.encoder.k()));
      for (auto& bit : data)
        bit = static_cast<std::uint8_t>(rng.next_below(2));
      const auto cw = f.encoder.encode(data);
      AwgnChannel channel(cfg.ebn0_db[p], rate, rng.split());
      const DecodeResult result =
          decoder.decode(quantize_llrs(channel.transmit(cw)));
      std::int64_t errs = 0;
      for (std::size_t i = 0; i < cw.size(); ++i)
        errs += result.hard_bits[i] != cw[i];
      ++want.blocks;
      want.bits += static_cast<std::int64_t>(cw.size());
      want.bit_errors += errs;
      want.block_errors += errs > 0;
      want.iterations_total += result.iterations_run;
    }
  }
  // The 1 dB point must see block errors, or a zeroed block-error count
  // would go unnoticed.
  ASSERT_GT(replay[0].block_errors, 0);
  expect_points_equal(replay, points);
}

TEST(BerHarnessTest, MoreThreadsThanJobsIsFine) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.ebn0_db = {2.0};
  cfg.blocks_per_point = 3;
  cfg.threads = 16;  // workers are capped at the job count
  const auto many = run_ber_sweep(f.code, f.encoder, cfg);
  cfg.threads = 1;
  expect_points_equal(run_ber_sweep(f.code, f.encoder, cfg), many);
}

TEST(BerHarnessTest, ValidatesConfig) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.ebn0_db.clear();
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.blocks_per_point = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.threads = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.iterations = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
}

TEST(BerHarnessTest, BlockStreamsDistinctAcrossCoordinates) {
  // The stream seed must depend on all three coordinates. (Aggregate
  // error *counts* of two sweeps can legitimately collide, so the
  // property is pinned on the streams themselves.)
  const auto first_u64 = [](std::uint64_t seed, int point, int block) {
    return ber_block_rng(seed, point, block).next_u64();
  };
  EXPECT_NE(first_u64(77, 0, 0), first_u64(78, 0, 0));
  EXPECT_NE(first_u64(77, 0, 0), first_u64(77, 1, 0));
  EXPECT_NE(first_u64(77, 0, 0), first_u64(77, 0, 1));
  EXPECT_NE(first_u64(77, 1, 0), first_u64(77, 0, 1));
}

}  // namespace
}  // namespace renoc
