// Synthetic traffic generators for NoC characterization.
//
// The paper's workload is the LDPC decoder, but validating the fabric
// (latency/throughput curves, saturation, fairness) needs standard
// synthetic patterns. These also drive the threaded scenario sweep in
// noc/sweep_harness.
#pragma once

#include <cstdint>

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
};

const char* to_string(TrafficPattern p);

/// Bernoulli-injection synthetic traffic driver.
class TrafficGenerator {
 public:
  /// `injection_rate` is flits/node/cycle (0, 1]; messages are
  /// `message_words` words long; `hotspot` names the target node for
  /// kHotspot.
  TrafficGenerator(Fabric& fabric, TrafficPattern pattern,
                   double injection_rate, int message_words, Rng rng,
                   int hotspot = 0);

  /// Destination for a source under the configured pattern. May equal
  /// `src` for patterns with fixed points (transpose diagonal, the hotspot
  /// node itself); step() counts such draws in messages_skipped() instead
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

 private:
  Fabric* fabric_;
  TrafficPattern pattern_;
  double flit_rate_;
  int message_words_;
  Rng rng_;
  int hotspot_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t messages_skipped_ = 0;
};

}  // namespace renoc
