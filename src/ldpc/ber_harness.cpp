#include "ldpc/ber_harness.hpp"

#include <memory>

#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "util/check.hpp"

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

// Service-record layout: one record per (point, block) job.
enum BerWord { kBits = 0, kBitErrors, kBlockError, kIterationsRun };
constexpr int kBerRecordWords = 4;

}  // namespace

sweep::SweepSpec make_ber_sweep_spec(const LdpcCode& code,
                                     const LdpcEncoder& encoder,
                                     const BerConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(encoder.n() == code.n(), "encoder does not match code");

  sweep::SweepSpec spec;
  spec.enumerated = static_cast<std::int64_t>(cfg.ebn0_db.size()) *
                    static_cast<std::int64_t>(cfg.blocks_per_point);
  spec.record_words = kBerRecordWords;
  // Everything that determines a block's decode result goes into the
  // fingerprint; the thread count is excluded because the counts are
  // invariant in it (pinned by ber_harness_test).
  sweep::DigestBuilder digest;
  digest.fold_string("ber")
      .fold(cfg.seed)
      .fold_int(cfg.blocks_per_point)
      .fold_int(cfg.iterations)
      .fold_int(cfg.early_exit ? 1 : 0)
      .fold_int(code.n())
      .fold_int(code.m());
  for (const double ebn0 : cfg.ebn0_db) digest.fold_real(ebn0);
  spec.config_digest = digest.digest();

  spec.make_runner = [&code, &encoder, &cfg]() {
    // Per-worker setup hoisting: each worker owns its decoder (decoder
    // workspaces are single-threaded), decode result and block buffers.
    struct WorkerState {
      MinSumDecoder decoder;
      DecodeResult result;
      std::vector<std::int64_t> digits;
      std::vector<std::int64_t> shape;
      std::vector<std::uint8_t> data;
      std::vector<std::uint8_t> cw;
      std::vector<std::int16_t> llrs;
      double rate = 0.0;

      WorkerState(const LdpcCode& c, const LdpcEncoder& e,
                  const BerConfig& b)
          : decoder(c, b.iterations, b.early_exit),
            shape{static_cast<std::int64_t>(b.ebn0_db.size()),
                  b.blocks_per_point},
            data(static_cast<std::size_t>(e.k())),
            rate(static_cast<double>(e.k()) / static_cast<double>(e.n())) {}
    };
    auto state = std::make_shared<WorkerState>(code, encoder, cfg);
    return [state, &code, &encoder, &cfg](std::int64_t scenario,
                                          std::uint64_t* words) {
      WorkerState& ws = *state;
      sweep::decode_scenario_index(scenario, ws.shape, ws.digits);
      const int p = static_cast<int>(ws.digits[0]);
      const int b = static_cast<int>(ws.digits[1]);
      Rng rng = ber_block_rng(cfg.seed, p, b);
      for (auto& bit : ws.data)
        bit = static_cast<std::uint8_t>(rng.next_below(2));
      ws.cw = encoder.encode(ws.data);
      AwgnChannel channel(cfg.ebn0_db[static_cast<std::size_t>(p)], ws.rate,
                          rng.split());
      ws.llrs = quantize_llrs(channel.transmit(ws.cw));
      ws.decoder.decode_into(ws.llrs, ws.result);
      std::int64_t errs = 0;
      for (std::size_t i = 0; i < ws.cw.size(); ++i)
        errs += ws.result.hard_bits[i] != ws.cw[i];
      words[kBits] = static_cast<std::uint64_t>(code.n());
      words[kBitErrors] = static_cast<std::uint64_t>(errs);
      words[kBlockError] = errs > 0 ? 1 : 0;
      words[kIterationsRun] =
          static_cast<std::uint64_t>(ws.result.iterations_run);
    };
  };
  return spec;
}

std::vector<BerPoint> ber_points_from_records(
    const BerConfig& cfg,
    const std::vector<sweep::ScenarioRecord>& records) {
  const std::int64_t points = static_cast<std::int64_t>(cfg.ebn0_db.size());
  const std::vector<std::int64_t> shape = {points, cfg.blocks_per_point};
  std::vector<BerPoint> out(static_cast<std::size_t>(points));
  for (std::int64_t p = 0; p < points; ++p)
    out[static_cast<std::size_t>(p)].ebn0_db =
        cfg.ebn0_db[static_cast<std::size_t>(p)];
  std::vector<std::int64_t> digits;
  for (const sweep::ScenarioRecord& rec : records) {
    if (rec.outcome != sweep::Outcome::kCompleted) continue;
    RENOC_CHECK_MSG(rec.words.size() == kBerRecordWords,
                    "BER record has " << rec.words.size() << " words");
    sweep::decode_scenario_index(rec.scenario, shape, digits);
    BerPoint& pt = out[static_cast<std::size_t>(digits[0])];
    ++pt.blocks;
    pt.bits += static_cast<std::int64_t>(rec.words[kBits]);
    pt.bit_errors += static_cast<std::int64_t>(rec.words[kBitErrors]);
    pt.block_errors += static_cast<std::int64_t>(rec.words[kBlockError]);
    pt.iterations_total +=
        static_cast<std::int64_t>(rec.words[kIterationsRun]);
  }
  return out;
}

std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg) {
  sweep::ShardRunOptions run;
  run.threads = cfg.threads;
  return ber_points_from_records(
      cfg,
      sweep::run_sweep_shard(make_ber_sweep_spec(code, encoder, cfg), run)
          .records);
}

}  // namespace renoc
