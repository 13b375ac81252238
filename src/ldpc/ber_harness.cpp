#include "ldpc/ber_harness.hpp"

#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "util/check.hpp"
#include "util/sweep.hpp"

namespace renoc {

void BerConfig::validate() const {
  // Axis and thread checks come from util/sweep so all three harnesses
  // fail with the same pinned messages (sweep_test asserts on them).
  sweep::require_axis(!ebn0_db.empty(), "Eb/N0");
  RENOC_CHECK(blocks_per_point >= 1);
  RENOC_CHECK(iterations >= 1);
  sweep::require_threads(threads);
}

Rng ber_block_rng(std::uint64_t seed, int point, int block) {
  RENOC_CHECK(point >= 0 && block >= 0);
  // Stateless derivation — two chained SplitMix64 steps fold the sweep
  // coordinates into the master seed, so any block of any point is
  // reachable in O(1): the sweep never materializes a seed table, replaying
  // a whole point is linear, and the job space is not bounded by memory.
  return Rng(derive_stream_seed(
      derive_stream_seed(seed, static_cast<std::uint64_t>(point)),
      static_cast<std::uint64_t>(block)));
}

namespace {

/// One block's counts, written by the worker that decoded it.
struct BlockCounts {
  std::int64_t bits = 0;
  std::int64_t bit_errors = 0;
  std::int64_t block_error = 0;
  std::int64_t iterations_run = 0;
};

/// One worker's decoder (decoder workspaces are single-threaded), decode
/// result and block buffers, built before the loop.
struct BlockWorker {
  MinSumDecoder decoder;
  DecodeResult result;
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> cw;
  std::vector<std::int16_t> llrs;

  BlockWorker(const LdpcCode& code, const LdpcEncoder& encoder,
              const BerConfig& cfg)
      : decoder(code, cfg.iterations, cfg.early_exit),
        data(static_cast<std::size_t>(encoder.k())) {}
};

}  // namespace

std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(encoder.n() == code.n(), "encoder does not match code");
  const std::int64_t points = static_cast<std::int64_t>(cfg.ebn0_db.size());
  const std::int64_t jobs = points * cfg.blocks_per_point;
  const double rate =
      static_cast<double>(encoder.k()) / static_cast<double>(encoder.n());

  std::vector<BlockWorker> workers;
  const int worker_count = sweep::clamp_workers(cfg.threads, jobs);
  workers.reserve(static_cast<std::size_t>(worker_count));
  for (int w = 0; w < worker_count; ++w)
    workers.emplace_back(code, encoder, cfg);

  // Job j is block j % blocks_per_point of point j / blocks_per_point.
  std::vector<BlockCounts> blocks(static_cast<std::size_t>(jobs));
  sweep::run_scenarios(jobs, cfg.threads, [&](int worker, std::int64_t job) {
    BlockWorker& ws = workers[static_cast<std::size_t>(worker)];
    const int p = static_cast<int>(job / cfg.blocks_per_point);
    const int b = static_cast<int>(job % cfg.blocks_per_point);
    Rng rng = ber_block_rng(cfg.seed, p, b);
    for (auto& bit : ws.data)
      bit = static_cast<std::uint8_t>(rng.next_below(2));
    ws.cw = encoder.encode(ws.data);
    AwgnChannel channel(cfg.ebn0_db[static_cast<std::size_t>(p)], rate,
                        rng.split());
    ws.llrs = quantize_llrs(channel.transmit(ws.cw));
    ws.decoder.decode_into(ws.llrs, ws.result);
    std::int64_t errs = 0;
    for (std::size_t i = 0; i < ws.cw.size(); ++i)
      errs += ws.result.hard_bits[i] != ws.cw[i];
    BlockCounts& counts = blocks[static_cast<std::size_t>(job)];
    counts.bits = code.n();
    counts.bit_errors = errs;
    counts.block_error = errs > 0 ? 1 : 0;
    counts.iterations_run = ws.result.iterations_run;
  });

  std::vector<BerPoint> out(static_cast<std::size_t>(points));
  for (std::int64_t job = 0; job < jobs; ++job) {
    const BlockCounts& counts = blocks[static_cast<std::size_t>(job)];
    BerPoint& pt = out[static_cast<std::size_t>(job / cfg.blocks_per_point)];
    ++pt.blocks;
    pt.bits += counts.bits;
    pt.bit_errors += counts.bit_errors;
    pt.block_errors += counts.block_error;
    pt.iterations_total += counts.iterations_run;
  }
  for (std::int64_t p = 0; p < points; ++p)
    out[static_cast<std::size_t>(p)].ebn0_db =
        cfg.ebn0_db[static_cast<std::size_t>(p)];
  return out;
}

}  // namespace renoc
