// The LDPC decoder distributed over the NoC fabric.
//
// Each cluster of the Partition runs on one PE (tile). Decoding follows the
// flooding schedule of the golden MinSumDecoder, but inter-cluster message
// values physically traverse the mesh as wormhole packets:
//
//   per iteration:
//     VN phase: every PE, once it holds all check-to-variable (r) values
//               for its variables, computes q values for all incident
//               edges (busy for cycles proportional to its edge count)
//               and sends one aggregated packet per destination PE;
//     CN phase: symmetric, computing r values;
//   final:      after the last CN phase, PEs compute hard decisions.
//
// Values are int16 fixed-point, packed four per 64-bit flit word in a
// canonical per-(source,destination,phase) edge order precomputed at
// construction, so sender and receiver agree without per-value headers.
// All arithmetic goes through ldpc/minsum.hpp with the same operand
// ordering as the golden decoder, making the distributed result
// bit-identical — the key functional invariant under test.
//
// Timing is value-independent (fixed iterations, static message sets), so
// every block takes the same number of cycles: the deterministic block time
// the paper aligns migration periods with.
//
// decode_block is event-driven but cycle-exact: each cycle it reads
// deliveries only when the fabric holds unread ones, and sweeps the PE
// state machines only when a message was unpacked, a PE finished on the
// previous cycle, or the earliest busy_until is due — on any other cycle
// the sweep provably changes nothing. When the fabric is idle and no PE can
// start, nothing can happen before the earliest busy_until, so the fabric
// jumps there with Fabric::advance_idle (clamped to the deadlock guard's
// cycle).
//
// Period replay. Past a short transient the schedule repeats every
// iteration or two, so at each such idle-skip point — pristine fabric
// idle, no delivery unread, every NI enabled, no PE done — the decoder
// takes an anchor: a Fabric::mark() (the round-robin pointers, all that
// still decides an idle fabric's future) plus a key holding each
// cluster's state, its phase and busy_until - now, and its received
// counts from its phase on, taken relative to base, the lowest phase
// rounded down to even. Anchors start at base 2, past phase 0, which
// needs no input. When an anchor's key equals an earlier anchor's whose
// base is 2m lower and the pointers match, the T = now - then cycles
// between them repeat: phase cost depends on parity alone, and no
// message value affects timing. Fabric::repeat applies k whole periods at
// once, k = (2 * iterations - highest phase) / (2m) rounded down so that
// no cluster finishes the final hard-decision phase inside the jump, and
// fewer if the jump would reach the deadlock guard's cycle. Every
// cluster's phase, busy_until and received counts then shift by 2mk, and
// the skipped phases' min-sum kernels run in ascending phase order, a
// valid dataflow order: each value is read before it is next written.
// Results, cycles and every fabric counter equal stepping's;
// NocDecodeResult reports the cycles replayed.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"
#include "ldpc/partition.hpp"
#include "noc/fabric.hpp"

namespace renoc {

struct LdpcNocParams {
  int iterations = 10;
  /// Fixed sequencing cost per phase; a phase then costs one PE cycle per
  /// edge of its cluster's variables (VN and final phases) or checks (CN).
  int phase_overhead_cycles = 8;
  std::uint64_t max_cycles_per_block = 5'000'000;  ///< deadlock guard

  void validate() const;
};

struct NocDecodeResult {
  std::vector<std::uint8_t> hard_bits;
  bool syndrome_ok = false;
  Cycle cycles = 0;  ///< block latency in fabric cycles
  /// Cycles of `cycles` covered by period replay instead of step() calls.
  Cycle replayed_cycles = 0;
};

class NocLdpcDecoder {
 public:
  /// int16 message values packed per 64-bit flit word (16-bit lanes).
  static constexpr int kValuesPerWord = 4;

  /// `placement[cluster]` is the tile hosting that cluster; it must be an
  /// injective map into the fabric's nodes. Cluster count must not exceed
  /// the node count.
  NocLdpcDecoder(Fabric& fabric, const LdpcCode& code, Partition partition,
                 std::vector<int> placement, LdpcNocParams params = {});

  /// Re-homes clusters onto new tiles (runtime reconfiguration). Must not
  /// be called mid-block.
  void set_placement(const std::vector<int>& placement);
  const std::vector<int>& placement() const { return placement_; }

  /// Decodes one block, driving the fabric until completion.
  NocDecodeResult decode_block(const std::vector<std::int16_t>& channel_llrs);

  int cluster_count() const { return partition_.cluster_count; }
  const Partition& partition() const { return partition_; }

  /// Edge-ops per cluster per full iteration (compute-power proxy).
  const std::vector<std::uint64_t>& cluster_ops() const {
    return cluster_ops_;
  }

  /// Words of configuration+state a PE must ship when its cluster migrates:
  /// channel LLRs + live r messages (packed 4/word) + a fixed config block.
  int migration_state_words(int cluster) const;

 private:
  // Phase indices: iteration i contributes phases 2i (VN) and 2i+1 (CN);
  // phase 2*iterations is the final hard-decision phase.
  int phase_count() const { return 2 * params_.iterations + 1; }

  enum class PeState { kWaiting, kComputing, kDone };

  struct ClusterRuntime {
    PeState state = PeState::kWaiting;
    int phase = 0;
    Cycle busy_until = 0;
    std::vector<int> received;  // per phase, messages received so far
  };

  // Static per-(src,dst) edge lists, canonical order (ascending edge id).
  struct PairTraffic {
    int src = 0;
    int dst = 0;
    std::vector<int> edges;
    int words = 0;  ///< payload words: ceil(edges / kValuesPerWord)
  };

  void build_static_tables();
  void unpack_message(const Message& msg);
  void start_phase_if_ready(int cluster);
  void finish_compute(int cluster);
  /// The VN (even) or CN (odd) min-sum update of one non-final phase.
  void run_phase_kernels(int cluster, int phase);
  /// Anchors the idle-skip point the block has reached and replays whole
  /// periods when it repeats an earlier anchor; returns the cycles jumped.
  Cycle fast_forward(Cycle deadline);
  /// Moves every cluster on by `phases` (highest phase `hi`) and its
  /// busy_until by `cycles`, running the skipped phases' kernels.
  void replay_phases(int phases, int hi, Cycle cycles);
  void send_phase_messages(int cluster, int phase);
  bool inputs_ready(int cluster, int phase) const;
  Cycle phase_cost(int cluster, int phase) const;
  std::uint64_t phase_ops(int cluster, int phase) const;

  Fabric* fabric_;
  const LdpcCode* code_;
  Partition partition_;
  std::vector<int> placement_;      // cluster -> tile
  std::vector<int> tile_cluster_;   // tile -> cluster (-1 none)
  LdpcNocParams params_;

  // Static structure.
  std::vector<std::vector<int>> cluster_vns_;
  std::vector<std::vector<int>> cluster_cns_;
  std::vector<std::uint64_t> cluster_ops_;
  std::vector<std::uint64_t> vn_ops_;  // edge ops of a VN or final phase
  std::vector<std::uint64_t> cn_ops_;  // edge ops of a CN phase
  // vn_pairs_[s]: traffic sent by cluster s during VN phases (q values,
  // keyed by destination CN cluster). cn_pairs_ symmetric for r values.
  std::vector<std::vector<PairTraffic>> vn_pairs_;
  std::vector<std::vector<PairTraffic>> cn_pairs_;
  // Expected distinct incoming messages per cluster for each phase kind.
  std::vector<int> expected_vn_inputs_;  // r-messages needed before VN/final
  std::vector<int> expected_cn_inputs_;  // q-messages needed before CN
  int max_message_words_ = 0;  // largest PairTraffic::words

  // Per-block dynamic state.
  std::vector<std::int16_t> r_;  // edge-indexed check->var messages
  std::vector<std::int16_t> q_;  // edge-indexed var->check messages
  std::vector<std::int16_t> llr_;
  std::vector<std::uint8_t> hard_bits_;
  std::vector<ClusterRuntime> runtime_;

  // The block's anchors (see the header comment): the key's hash, its
  // place in anchor_keys_, the base phase, the cycle and the fabric mark.
  struct Anchor {
    std::uint64_t hash = 0;
    std::size_t key_begin = 0;
    std::size_t key_size = 0;
    Cycle now = 0;
    int base = 0;
    int mark = -1;
  };
  std::vector<Anchor> anchors_;
  std::vector<std::uint64_t> anchor_keys_;
  std::vector<std::uint64_t> key_;  // scratch: the key being taken
};

}  // namespace renoc
