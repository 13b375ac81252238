// Multithreaded Monte-Carlo BER harness.
//
// Sweeps Eb/N0 points, transmitting encoded random blocks through the AWGN
// channel and decoding them with the flat min-sum engine. Each (point,
// block) pair is one scenario of sweep::run_scenarios on cfg.threads
// workers (scenario = point * blocks_per_point + block). Determinism is the
// design center:
//
//   - every block of every sweep point gets its own RNG stream, derived
//     statelessly from (config seed, point index, block index) by a
//     SplitMix64 chain — never from the worker that happens to run it;
//   - each block's four counts land in their own slot, and the fold is a
//     plain per-point sum over the slots, so no schedule can change it.
//
// Result: the counts are bit-identical for any thread count. The price is
// memory: a run holds four counts per block until the fold, not one
// accumulator per point.
//
// Each worker owns a private MinSumDecoder (decoder workspaces are not
// shareable across threads), built before the loop, and a reused
// DecodeResult, so the decode itself performs no heap allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"
#include "ldpc/encoder.hpp"
#include "util/rng.hpp"

namespace renoc {

struct BerConfig {
  std::vector<double> ebn0_db;  ///< sweep points (one BerPoint per entry)
  int blocks_per_point = 100;
  int iterations = 10;       ///< decoder iterations per block
  bool early_exit = true;    ///< stop a block on zero syndrome
  int threads = 1;           ///< worker thread count (>= 1)
  std::uint64_t seed = 1;    ///< master seed for all per-block streams

  void validate() const;
};

struct BerPoint {
  double ebn0_db = 0.0;
  std::int64_t blocks = 0;
  std::int64_t bits = 0;              ///< total codeword bits transmitted
  std::int64_t bit_errors = 0;
  std::int64_t block_errors = 0;      ///< blocks with any bit error
  std::int64_t iterations_total = 0;  ///< sum of iterations_run

  double ber() const {
    return bits > 0 ? static_cast<double>(bit_errors) /
                          static_cast<double>(bits)
                    : 0.0;
  }
  double bler() const {
    return blocks > 0 ? static_cast<double>(block_errors) /
                            static_cast<double>(blocks)
                      : 0.0;
  }
  double avg_iterations() const {
    return blocks > 0 ? static_cast<double>(iterations_total) /
                            static_cast<double>(blocks)
                      : 0.0;
  }
};

/// Runs the sweep; returns one BerPoint per cfg.ebn0_db entry, independent
/// of cfg.threads. The encoder must belong to `code`.
std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg);

/// The RNG stream the sweep uses for block `block` of sweep point `point`
/// — exposed so examples/tests can regenerate the exact blocks a sweep
/// measured (e.g. to re-decode them on the NoC decoder and compare).
/// O(1): the stream seed is a stateless mix of the three coordinates.
Rng ber_block_rng(std::uint64_t seed, int point, int block);

}  // namespace renoc
