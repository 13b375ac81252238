#include "ldpc/noc_decoder.hpp"

#include <algorithm>

#include "ldpc/minsum.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

// Tag layout: [63:16] global phase, [15:0] source cluster.
std::uint64_t make_tag(int phase, int src_cluster) {
  return (static_cast<std::uint64_t>(phase) << 16) |
         static_cast<std::uint64_t>(src_cluster);
}
std::uint64_t tag_phase(std::uint64_t tag) { return tag >> 16; }
int tag_src(std::uint64_t tag) {
  return static_cast<int>(tag & 0xffffULL);
}

}  // namespace

void LdpcNocParams::validate() const {
  RENOC_CHECK(iterations >= 1);
  RENOC_CHECK(phase_overhead_cycles >= 0);
  RENOC_CHECK(max_cycles_per_block > 0);
}

NocLdpcDecoder::NocLdpcDecoder(Fabric& fabric, const LdpcCode& code,
                               Partition partition,
                               std::vector<int> placement,
                               LdpcNocParams params)
    : fabric_(&fabric),
      code_(&code),
      partition_(std::move(partition)),
      placement_(std::move(placement)),
      params_(params) {
  params_.validate();
  partition_.validate(code);
  RENOC_CHECK_MSG(partition_.cluster_count <= fabric.node_count(),
                  "more clusters than tiles");
  set_placement(placement_);
  build_static_tables();
  r_.resize(static_cast<std::size_t>(code.edge_count()), 0);
  q_.resize(static_cast<std::size_t>(code.edge_count()), 0);
  runtime_.resize(static_cast<std::size_t>(cluster_count()));
  for (auto& rt : runtime_)
    rt.received.resize(static_cast<std::size_t>(phase_count() + 1));
}

void NocLdpcDecoder::set_placement(const std::vector<int>& placement) {
  RENOC_CHECK_MSG(static_cast<int>(placement.size()) ==
                      partition_.cluster_count,
                  "placement size mismatch");
  std::vector<int> tile_cluster(
      static_cast<std::size_t>(fabric_->node_count()), -1);
  for (int c = 0; c < partition_.cluster_count; ++c) {
    const int tile = placement[static_cast<std::size_t>(c)];
    RENOC_CHECK_MSG(tile >= 0 && tile < fabric_->node_count(),
                    "tile " << tile << " out of range");
    RENOC_CHECK_MSG(tile_cluster[static_cast<std::size_t>(tile)] < 0,
                    "two clusters placed on tile " << tile);
    tile_cluster[static_cast<std::size_t>(tile)] = c;
  }
  placement_ = placement;
  tile_cluster_ = std::move(tile_cluster);
}

void NocLdpcDecoder::build_static_tables() {
  const LdpcCode& code = *code_;
  const int k = partition_.cluster_count;

  cluster_vns_.assign(static_cast<std::size_t>(k), {});
  cluster_cns_.assign(static_cast<std::size_t>(k), {});
  for (int v = 0; v < code.n(); ++v)
    cluster_vns_[static_cast<std::size_t>(
                     partition_.vn_owner[static_cast<std::size_t>(v)])]
        .push_back(v);
  for (int c = 0; c < code.m(); ++c)
    cluster_cns_[static_cast<std::size_t>(
                     partition_.cn_owner[static_cast<std::size_t>(c)])]
        .push_back(c);

  // Edge ops of one VN (or final) phase and of one CN phase, per cluster.
  vn_ops_.assign(static_cast<std::size_t>(k), 0);
  cn_ops_.assign(static_cast<std::size_t>(k), 0);
  cluster_ops_.assign(static_cast<std::size_t>(k), 0);
  for (int cl = 0; cl < k; ++cl) {
    const std::size_t c = static_cast<std::size_t>(cl);
    for (int v : cluster_vns_[c])
      vn_ops_[c] += static_cast<std::uint64_t>(code.var_degree(v));
    for (int ch : cluster_cns_[c])
      cn_ops_[c] += static_cast<std::uint64_t>(code.check_degree(ch));
    cluster_ops_[c] = vn_ops_[c] + cn_ops_[c];
  }

  // Cross-cluster edge lists, canonical ascending-edge-id order. Walking
  // checks in index order and their edges in construction order gives
  // ascending global edge ids within each (src, dst) bucket because edge
  // ids were assigned in exactly that traversal order.
  std::vector<std::vector<std::vector<int>>> vn_to_cn(
      static_cast<std::size_t>(k),
      std::vector<std::vector<int>>(static_cast<std::size_t>(k)));
  for (int c = 0; c < code.m(); ++c) {
    const int co = partition_.cn_owner[static_cast<std::size_t>(c)];
    for (const TannerEdge& e : code.check_edges(c)) {
      const int vo = partition_.vn_owner[static_cast<std::size_t>(e.other)];
      if (vo == co) continue;
      vn_to_cn[static_cast<std::size_t>(vo)][static_cast<std::size_t>(co)]
          .push_back(e.edge);
    }
  }

  vn_pairs_.assign(static_cast<std::size_t>(k), {});
  cn_pairs_.assign(static_cast<std::size_t>(k), {});
  expected_vn_inputs_.assign(static_cast<std::size_t>(k), 0);
  expected_cn_inputs_.assign(static_cast<std::size_t>(k), 0);
  max_message_words_ = 0;
  constexpr std::size_t vpw = kValuesPerWord;
  for (int s = 0; s < k; ++s) {
    for (int d = 0; d < k; ++d) {
      auto& edges = vn_to_cn[static_cast<std::size_t>(s)][
          static_cast<std::size_t>(d)];
      if (edges.empty()) continue;
      std::sort(edges.begin(), edges.end());
      const int words = static_cast<int>((edges.size() + vpw - 1) / vpw);
      max_message_words_ = std::max(max_message_words_, words);
      // q values flow VN-cluster s -> CN-cluster d...
      vn_pairs_[static_cast<std::size_t>(s)].push_back(
          PairTraffic{s, d, edges, words});
      ++expected_cn_inputs_[static_cast<std::size_t>(d)];
      // ...and r values flow back CN-cluster d -> VN-cluster s.
      cn_pairs_[static_cast<std::size_t>(d)].push_back(
          PairTraffic{d, s, edges, words});
      ++expected_vn_inputs_[static_cast<std::size_t>(s)];
    }
  }
}

int NocLdpcDecoder::migration_state_words(int cluster) const {
  RENOC_CHECK(cluster >= 0 && cluster < cluster_count());
  // Channel LLRs for owned variables plus live r messages on their edges,
  // packed like network traffic, plus a fixed configuration block
  // (routing tables, partition descriptors, quantizer setup — what the
  // conversion unit rewrites; Section 2.1).
  constexpr int kConfigWords = 32;
  std::int64_t values = 0;
  for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
    values += 1 + code_->var_degree(v);
  return static_cast<int>((values + kValuesPerWord - 1) / kValuesPerWord) +
         kConfigWords;
}

bool NocLdpcDecoder::inputs_ready(int cluster, int phase) const {
  const auto& rt = runtime_[static_cast<std::size_t>(cluster)];
  const bool is_cn_phase = (phase < 2 * params_.iterations) && (phase % 2 == 1);
  const int expected =
      is_cn_phase ? expected_cn_inputs_[static_cast<std::size_t>(cluster)]
                  : (phase == 0
                         ? 0  // first VN phase needs no r messages
                         : expected_vn_inputs_[static_cast<std::size_t>(
                               cluster)]);
  return rt.received[static_cast<std::size_t>(phase)] >= expected;
}

std::uint64_t NocLdpcDecoder::phase_ops(int cluster, int phase) const {
  const bool is_cn_phase = (phase < 2 * params_.iterations) && (phase % 2 == 1);
  return (is_cn_phase ? cn_ops_ : vn_ops_)[static_cast<std::size_t>(cluster)];
}

Cycle NocLdpcDecoder::phase_cost(int cluster, int phase) const {
  return static_cast<Cycle>(params_.phase_overhead_cycles) +
         phase_ops(cluster, phase);
}

void NocLdpcDecoder::unpack_message(const Message& msg) {
  const int dst_cluster = tile_cluster_[static_cast<std::size_t>(msg.dst)];
  RENOC_CHECK_MSG(dst_cluster >= 0, "message delivered to unmapped tile");
  const std::uint64_t tagged_phase = tag_phase(msg.tag);
  RENOC_CHECK_MSG(tagged_phase < static_cast<std::uint64_t>(phase_count()),
                  "message tag names phase " << tagged_phase);
  const int phase = static_cast<int>(tagged_phase);
  const int src_cluster = tag_src(msg.tag);
  RENOC_CHECK_MSG(src_cluster < cluster_count(),
                  "message tag names cluster " << src_cluster);

  // Locate the canonical edge list for this (src, dst) pair. A CN-phase
  // message (odd phase) carries r values written from cn_pairs_ of the
  // source; its edges land in r_. VN-phase messages carry q values.
  const bool carries_q = (phase % 2 == 0) && phase < 2 * params_.iterations;
  const auto& pair_lists =
      carries_q ? vn_pairs_[static_cast<std::size_t>(src_cluster)]
                : cn_pairs_[static_cast<std::size_t>(src_cluster)];
  const PairTraffic* pair = nullptr;
  for (const PairTraffic& pt : pair_lists) {
    if (pt.dst == dst_cluster) {
      pair = &pt;
      break;
    }
  }
  RENOC_CHECK_MSG(pair != nullptr, "no traffic entry for received message");
  RENOC_CHECK_MSG(msg.payload.size() == static_cast<std::size_t>(pair->words),
                  "message carries " << msg.payload.size() << " words, its "
                                     << pair->edges.size() << " edges need "
                                     << pair->words);

  // Word by word, kValuesPerWord 16-bit lanes each (no per-value divide).
  auto& target = carries_q ? q_ : r_;
  constexpr unsigned word_bits = 16u * kValuesPerWord;
  const std::uint64_t* word = msg.payload.data();
  unsigned shift = 0;
  for (const int e : pair->edges) {
    target[static_cast<std::size_t>(e)] =
        static_cast<std::int16_t>((*word >> shift) & 0xffffULL);
    shift += 16;
    if (shift == word_bits) {
      shift = 0;
      ++word;
    }
  }

  // A message sent during source phase p is consumed by the destination's
  // *next* phase: q of VN phase 2i feeds CN phase 2i+1; r of CN phase 2i+1
  // feeds VN (or final) phase 2i+2.
  auto& rt = runtime_[static_cast<std::size_t>(dst_cluster)];
  ++rt.received[static_cast<std::size_t>(phase + 1)];
}

void NocLdpcDecoder::send_phase_messages(int cluster, int phase) {
  const bool is_cn_phase = (phase % 2 == 1);
  const auto& pairs = is_cn_phase
                          ? cn_pairs_[static_cast<std::size_t>(cluster)]
                          : vn_pairs_[static_cast<std::size_t>(cluster)];
  const auto& source = is_cn_phase ? r_ : q_;
  constexpr unsigned word_bits = 16u * kValuesPerWord;
  for (const PairTraffic& pt : pairs) {
    // Pool-backed message: the payload buffer circulates through the
    // fabric's recycling pool. A pooled buffer too short for this message
    // is grown to the largest message once, so it never reallocates again
    // and a warmed block allocates nothing but its result.
    Message msg = fabric_->acquire_message();
    if (msg.payload.capacity() < static_cast<std::size_t>(max_message_words_))
      msg.payload.reserve(static_cast<std::size_t>(max_message_words_));
    msg.src = placement_[static_cast<std::size_t>(cluster)];
    msg.dst = placement_[static_cast<std::size_t>(pt.dst)];
    msg.tag = make_tag(phase, cluster);
    msg.payload.assign(static_cast<std::size_t>(pt.words), 0);
    // Word by word, kValuesPerWord 16-bit lanes each (no per-value divide).
    std::uint64_t* word = msg.payload.data();
    unsigned shift = 0;
    for (const int e : pt.edges) {
      *word |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                   source[static_cast<std::size_t>(e)]))
               << shift;
      shift += 16;
      if (shift == word_bits) {
        shift = 0;
        ++word;
      }
    }
    fabric_->send(std::move(msg));
  }
}

void NocLdpcDecoder::start_phase_if_ready(int cluster) {
  auto& rt = runtime_[static_cast<std::size_t>(cluster)];
  if (rt.state != PeState::kWaiting) return;
  if (!inputs_ready(cluster, rt.phase)) return;
  rt.state = PeState::kComputing;
  rt.busy_until = fabric_->now() + phase_cost(cluster, rt.phase);
}

void NocLdpcDecoder::run_phase_kernels(int cluster, int phase) {
  // The PE compute loops stream straight through the flat CSR arrays and
  // the global edge-indexed q_/r_ state with the edge-indexed kernels — the
  // same kernels (and operand order) the golden decoder uses, so the
  // distributed result stays bit-identical with zero per-node scratch.
  const LdpcCode& code = *code_;
  const int* var_off = code.var_offsets().data();
  const int* var_ids = code.var_edge_ids().data();
  if (phase % 2 == 0) {
    // VN phase: q = f(llr, r) for every owned variable.
    for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
      minsum::var_update_edges(llr_[static_cast<std::size_t>(v)], r_.data(),
                               q_.data(), var_ids + var_off[v],
                               var_off[v + 1] - var_off[v]);
  } else {
    // CN phase: r = g(q) for every owned check.
    const int* check_off = code.check_offsets().data();
    const int* check_ids = code.check_edge_ids().data();
    for (int c : cluster_cns_[static_cast<std::size_t>(cluster)])
      minsum::check_update_edges(q_.data(), r_.data(),
                                 check_ids + check_off[c],
                                 check_off[c + 1] - check_off[c]);
  }
}

void NocLdpcDecoder::finish_compute(int cluster) {
  auto& rt = runtime_[static_cast<std::size_t>(cluster)];
  const int phase = rt.phase;

  // Account the compute activity on the hosting tile.
  fabric_->stats()
      .tile(placement_[static_cast<std::size_t>(cluster)])
      .pe_compute_ops += phase_ops(cluster, phase);

  if (phase == 2 * params_.iterations) {
    // Final hard-decision phase.
    const int* var_off = code_->var_offsets().data();
    const int* var_ids = code_->var_edge_ids().data();
    for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
      hard_bits_[static_cast<std::size_t>(v)] =
          minsum::var_posterior_edges(llr_[static_cast<std::size_t>(v)],
                                      r_.data(), var_ids + var_off[v],
                                      var_off[v + 1] - var_off[v]) < 0
              ? 1
              : 0;
    rt.state = PeState::kDone;
    return;
  }

  run_phase_kernels(cluster, phase);
  send_phase_messages(cluster, phase);
  // Same-cluster values were written directly into q_/r_ above, so the
  // only bookkeeping needed is advancing to the next phase.
  rt.phase = phase + 1;
  rt.state = PeState::kWaiting;
}

Cycle NocLdpcDecoder::fast_forward(Cycle deadline) {
  const int final_phase = 2 * params_.iterations;
  int lo = final_phase;
  int hi = 0;
  for (const ClusterRuntime& rt : runtime_) {
    if (rt.state == PeState::kDone) return 0;
    lo = std::min(lo, rt.phase);
    hi = std::max(hi, rt.phase);
  }
  // An anchor below base 2 may precede a phase 0, which starts without
  // input; above 2 * iterations - 2 not even one iteration fits a jump.
  const int base = lo & ~1;
  if (base < 2 || hi + 2 > final_phase) return 0;

  // The key: per cluster its phase above base and its remaining compute
  // time (0 while waiting), then its received counts from its phase to
  // the highest phase (no message names a later one).
  const Cycle now = fabric_->now();
  key_.clear();
  for (const ClusterRuntime& rt : runtime_) {
    key_.push_back(static_cast<std::uint64_t>(rt.phase - base));
    key_.push_back(rt.state == PeState::kComputing ? rt.busy_until - now : 0);
  }
  for (const ClusterRuntime& rt : runtime_)
    for (int p = rt.phase; p <= hi; ++p)
      key_.push_back(static_cast<std::uint64_t>(
          rt.received[static_cast<std::size_t>(p)]));
  std::uint64_t hash = 0;
  for (const std::uint64_t w : key_) hash = mix64(hash ^ w);

  // Newest first: the latest equal anchor gives the shortest period.
  for (std::size_t i = anchors_.size(); i-- > 0;) {
    const Anchor& then = anchors_[i];
    if (then.hash != hash || then.base >= base ||
        then.key_size != key_.size() ||
        !std::equal(key_.begin(), key_.end(),
                    anchor_keys_.begin() +
                        static_cast<std::ptrdiff_t>(then.key_begin)))
      continue;
    // Whole periods of 2m phases that leave the final phase unfinished
    // and stop short of the deadlock guard's cycle.
    const int period_phases = base - then.base;
    const Cycle period = now - then.now;
    const Cycle periods =
        std::min(static_cast<Cycle>((final_phase - hi) / period_phases),
                 (deadline - 1 - now) / period);
    if (periods == 0 || !fabric_->repeat(then.mark, periods)) continue;
    replay_phases(static_cast<int>(periods) * period_phases, hi,
                  periods * period);
    anchors_.clear();
    anchor_keys_.clear();
    return periods * period;
  }

  const int mark = fabric_->mark();
  if (mark < 0) return 0;
  anchors_.push_back(
      Anchor{hash, anchor_keys_.size(), key_.size(), now, base, mark});
  anchor_keys_.insert(anchor_keys_.end(), key_.begin(), key_.end());
  return 0;
}

void NocLdpcDecoder::replay_phases(int phases, int hi, Cycle cycles) {
  // Message values never affect timing, so the skipped phases' kernels run
  // here in ascending phase order: phase p's kernels read only what phase
  // p - 1's wrote, and every value is read before phase p + 1 overwrites
  // it, as in the stepped schedule.
  int lo = hi;
  for (const ClusterRuntime& rt : runtime_) lo = std::min(lo, rt.phase);
  for (int p = lo; p < hi + phases; ++p)
    for (int cl = 0; cl < cluster_count(); ++cl) {
      const int from = runtime_[static_cast<std::size_t>(cl)].phase;
      if (p >= from && p < from + phases) run_phase_kernels(cl, p);
    }
  for (ClusterRuntime& rt : runtime_) {
    const auto first =
        rt.received.begin() + static_cast<std::ptrdiff_t>(rt.phase);
    const auto last = rt.received.begin() + static_cast<std::ptrdiff_t>(hi + 1);
    std::copy_backward(first, last, last + phases);
    std::fill(first, first + phases, 0);
    rt.phase += phases;
    if (rt.state == PeState::kComputing) rt.busy_until += cycles;
  }
}

NocDecodeResult NocLdpcDecoder::decode_block(
    const std::vector<std::int16_t>& channel_llrs) {
  const LdpcCode& code = *code_;
  Fabric& fabric = *fabric_;
  RENOC_CHECK(static_cast<int>(channel_llrs.size()) == code.n());
  RENOC_CHECK_MSG(fabric.idle(), "fabric must be idle at block start");

  llr_ = channel_llrs;
  std::fill(r_.begin(), r_.end(), static_cast<std::int16_t>(0));
  std::fill(q_.begin(), q_.end(), static_cast<std::int16_t>(0));
  hard_bits_.assign(static_cast<std::size_t>(code.n()), 0);
  for (auto& rt : runtime_) {
    rt.state = PeState::kWaiting;
    rt.phase = 0;
    rt.busy_until = 0;
    std::fill(rt.received.begin(), rt.received.end(), 0);
  }

  const Cycle start = fabric.now();
  Cycle done_at = start;
  Cycle replayed = 0;
  const Cycle deadline = start + params_.max_cycles_per_block;
  constexpr Cycle kNever = ~Cycle{0};
  const int tiles = fabric.node_count();
  // Anchors and their fabric marks last one block, however it ends.
  anchors_.clear();
  anchor_keys_.clear();
  struct ReleaseMarks {
    Fabric& fabric;
    ~ReleaseMarks() { fabric.release_marks(); }
  } release_marks{fabric};

  // Event-driven, cycle-exact schedule (see the header comment). `sweep`
  // marks a cycle on which a waiting PE may start: the first one, one with
  // a fresh unpack, and the one after a PE finished a phase. `next_due` is
  // the earliest busy_until of a computing PE, refreshed by every sweep
  // (PE state changes only inside sweeps).
  bool sweep = true;
  Cycle next_due = kNever;
  // renoc-hot-begin (the block's cycle loop: ~55k cycles per block)
  for (;;) {
    for (int tile = 0; tile < tiles && fabric.unread_deliveries() > 0;
         ++tile) {
      while (auto msg = fabric.try_receive(tile)) {
        unpack_message(*msg);
        fabric.recycle(std::move(*msg));
        sweep = true;
      }
    }

    const Cycle now = fabric.now();
    if (sweep || now >= next_due) {
      sweep = false;
      next_due = kNever;
      bool all_done = true;
      for (int cl = 0; cl < cluster_count(); ++cl) {
        auto& rt = runtime_[static_cast<std::size_t>(cl)];
        if (rt.state == PeState::kWaiting) start_phase_if_ready(cl);
        if (rt.state == PeState::kComputing && now >= rt.busy_until) {
          finish_compute(cl);
          // A cluster whose next phase needs no further input (e.g. all
          // its edges are internal) can begin immediately next cycle.
          if (rt.state == PeState::kDone)
            done_at = now;
          else
            sweep = true;
        }
        if (rt.state == PeState::kComputing)
          next_due = std::min(next_due, rt.busy_until);
        if (rt.state != PeState::kDone) all_done = false;
      }
      if (all_done) break;
    }

    // Idle-skip: with nothing in the fabric and no PE able to start, the
    // next event is the earliest busy_until. First the anchor: when this
    // state repeats an earlier one, whole periods are replayed and every
    // busy_until moves with them. Then land one cycle short of the next
    // event (or of the deadline, so the guard below fires on its own
    // cycle) and let the step reach it.
    if (!sweep && fabric.idle()) {
      const Cycle jumped = fast_forward(deadline);
      replayed += jumped;
      if (next_due != kNever) next_due += jumped;
      const Cycle at = fabric.now();
      const Cycle target = std::min(next_due, deadline);
      if (target > at + 1) fabric.advance_idle(target - 1 - at);
    }
    fabric.step();
    RENOC_CHECK_MSG(fabric.now() < deadline,
                    "block exceeded max_cycles_per_block — decoder deadlock?");
  }
  // renoc-hot-end

  NocDecodeResult result;
  result.hard_bits = hard_bits_;
  result.syndrome_ok = code.is_codeword(hard_bits_);
  result.cycles = done_at - start;
  result.replayed_cycles = replayed;
  return result;
}

}  // namespace renoc
