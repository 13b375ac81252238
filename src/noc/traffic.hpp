// Synthetic traffic generators for NoC characterization.
//
// The paper's workload is the LDPC decoder, but validating the fabric
// (latency/throughput curves, saturation, fairness) needs standard
// synthetic patterns. These also drive the threaded scenario sweep in
// noc/sweep_harness.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/fabric.hpp"
#include "util/rng.hpp"

namespace renoc {

/// Classic destination patterns from the NoC literature.
enum class TrafficPattern {
  kUniformRandom,  ///< uniform over all other nodes
  kTranspose,      ///< (x, y) -> (y, x)
  kBitComplement,  ///< index -> node_count-1-index
  kHotspot,        ///< all nodes send to one hotspot node
  kNeighbor,       ///< (x, y) -> east neighbor (wraps)
  kBitReverse,     ///< index bit-reversed within ceil(log2 n) address bits
  kShuffle,        ///< index rotated left one bit (perfect shuffle)
};

const char* to_string(TrafficPattern p);

/// Markov on/off modulation of the injection process (bursty traffic).
///
/// Each node carries a two-state Markov chain stepped once per cycle; a
/// node draws injections only while "on". The on-state injection
/// probability is scaled by 1/duty_cycle so the *long-run offered load
/// still equals the configured injection rate* — bursts change the arrival
/// process (clumped packets, heavier queue tails), not the mean.
struct BurstParams {
  bool enabled = false;
  double p_on_to_off = 0.05;  ///< per-cycle chance an "on" node turns off
  double p_off_to_on = 0.05;  ///< per-cycle chance an "off" node turns on

  /// Long-run fraction of cycles a node spends "on".
  double duty_cycle() const {
    return enabled ? p_off_to_on / (p_on_to_off + p_off_to_on) : 1.0;
  }
  void validate() const;
};

/// Bernoulli-injection synthetic traffic driver (optionally burst-modulated).
class TrafficGenerator {
 public:
  /// `injection_rate` is flits/node/cycle (0, 1]; messages are
  /// `message_words` words long; `hotspot` names the target node for
  /// kHotspot. With `burst.enabled`, injection draws happen only in the
  /// "on" state at rate/duty_cycle (which must still be a probability —
  /// validated).
  TrafficGenerator(Fabric& fabric, TrafficPattern pattern,
                   double injection_rate, int message_words, Rng rng,
                   int hotspot = 0, BurstParams burst = {});

  /// Destination for a source under the configured pattern. May equal
  /// `src` for patterns with fixed points (transpose diagonal, the hotspot
  /// node itself, out-of-range bit-reverse/shuffle images on non-power-of-
  /// two meshes); step() counts such draws in messages_skipped() instead
  /// of silently dropping them, so offered load stays measurable.
  int destination(int src);

  /// Advances one cycle: possibly injects at each node, then steps the
  /// fabric and consumes deliveries (payload buffers are recycled back to
  /// the fabric, keeping the steady-state loop allocation-free).
  void step();

  /// Runs `cycles` cycles.
  void run(int cycles);

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }
  /// Injection draws that hit a pattern fixed point (dst == src). These
  /// count toward offered load but inject nothing; reporting both sides is
  /// what keeps measured offered load equal to the configured rate.
  std::uint64_t messages_skipped() const { return messages_skipped_; }
  std::uint64_t cycles_run() const { return cycles_run_; }

  /// Measured offered load in flits/node/cycle, *including* fixed-point
  /// skips — converges on the configured injection rate.
  double offered_flit_rate() const;
  /// Offered load minus skips: what actually entered the NIs.
  double injected_flit_rate() const;
  /// Delivered load in flits/node/cycle over the cycles run so far.
  double accepted_flit_rate() const;

 private:
  Fabric* fabric_;
  TrafficPattern pattern_;
  double flit_rate_;
  int message_words_;
  Rng rng_;
  int hotspot_;
  BurstParams burst_;
  std::vector<std::uint8_t> node_on_;  ///< Markov state per node (bursty)
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t messages_skipped_ = 0;
  std::uint64_t cycles_run_ = 0;
};

}  // namespace renoc
