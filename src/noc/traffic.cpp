#include "noc/traffic.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace renoc {

namespace {

/// Address width of an n-node mesh: enough bits to index every node.
int address_bits(int n) {
  return std::max(1, static_cast<int>(std::bit_width(
                         static_cast<unsigned>(n - 1))));
}

}  // namespace

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniformRandom: return "uniform";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kNeighbor: return "neighbor";
    case TrafficPattern::kBitReverse: return "bit-reverse";
    case TrafficPattern::kShuffle: return "shuffle";
  }
  return "?";
}

void BurstParams::validate() const {
  if (!enabled) return;
  RENOC_CHECK_MSG(p_on_to_off > 0.0 && p_on_to_off <= 1.0,
                  "burst p_on_to_off must be in (0, 1]");
  RENOC_CHECK_MSG(p_off_to_on > 0.0 && p_off_to_on <= 1.0,
                  "burst p_off_to_on must be in (0, 1]");
}

TrafficGenerator::TrafficGenerator(Fabric& fabric, TrafficPattern pattern,
                                   double injection_rate, int message_words,
                                   Rng rng, int hotspot, BurstParams burst)
    : fabric_(&fabric),
      pattern_(pattern),
      flit_rate_(injection_rate),
      message_words_(message_words),
      rng_(rng),
      hotspot_(hotspot),
      burst_(burst) {
  RENOC_CHECK(injection_rate > 0.0 && injection_rate <= 1.0);
  RENOC_CHECK(message_words_ >= 1);
  RENOC_CHECK(hotspot_ >= 0 && hotspot_ < fabric.node_count());
  burst_.validate();
  RENOC_CHECK_MSG(
      flit_rate_ / message_words_ / burst_.duty_cycle() <= 1.0,
      "on-state injection probability exceeds 1 — raise the burst duty "
      "cycle or lower the injection rate");
  if (burst_.enabled) {
    // Start each node in its stationary state so there is no warm-up bias
    // toward all-on or all-off.
    node_on_.resize(static_cast<std::size_t>(fabric.node_count()));
    for (auto& on : node_on_)
      on = rng_.next_bool(burst_.duty_cycle()) ? 1 : 0;
  }
}

int TrafficGenerator::destination(int src) {
  const GridDim dim = fabric_->config().dim;
  const int n = dim.node_count();
  switch (pattern_) {
    case TrafficPattern::kUniformRandom: {
      int dst = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(n - 1)));
      if (dst >= src) ++dst;  // skip self
      return dst;
    }
    case TrafficPattern::kTranspose: {
      const GridCoord c = index_to_coord(src, dim);
      // Transpose is only total on square meshes; clamp otherwise.
      const GridCoord t{std::min(c.y, dim.width - 1),
                        std::min(c.x, dim.height - 1)};
      return coord_to_index(t, dim);
    }
    case TrafficPattern::kBitComplement:
      return n - 1 - src;
    case TrafficPattern::kHotspot:
      return hotspot_;
    case TrafficPattern::kNeighbor: {
      const GridCoord c = index_to_coord(src, dim);
      const GridCoord e{(c.x + 1) % dim.width, c.y};
      return coord_to_index(e, dim);
    }
    case TrafficPattern::kBitReverse: {
      const int bits = address_bits(n);
      int dst = 0;
      for (int b = 0; b < bits; ++b)
        if ((src >> b) & 1) dst |= 1 << (bits - 1 - b);
      // On non-power-of-two meshes some images land outside the mesh;
      // treat those sources as fixed points (counted as skips).
      return dst < n ? dst : src;
    }
    case TrafficPattern::kShuffle: {
      const int bits = address_bits(n);
      const int dst =
          ((src << 1) | (src >> (bits - 1))) & ((1 << bits) - 1);
      return dst < n ? dst : src;
    }
  }
  RENOC_FAIL("unknown traffic pattern");
}

void TrafficGenerator::step() {
  const int n = fabric_->node_count();
  // Message-level Bernoulli injection: a node starts a new message with
  // probability flit_rate / message_words per cycle (scaled up inside a
  // burst's on state), giving the requested average flit injection rate.
  const double p = flit_rate_ / message_words_ / burst_.duty_cycle();
  for (int src = 0; src < n; ++src) {
    if (burst_.enabled) {
      const bool was_on = node_on_[static_cast<std::size_t>(src)] != 0;
      // One transition draw per node per cycle keeps the RNG stream
      // aligned regardless of state.
      const bool flip = rng_.next_bool(was_on ? burst_.p_on_to_off
                                              : burst_.p_off_to_on);
      node_on_[static_cast<std::size_t>(src)] =
          (was_on != flip) ? 1 : 0;
      if (!was_on) continue;
    }
    if (!rng_.next_bool(p)) continue;
    const int dst = destination(src);
    if (dst == src) {
      // Fixed point of the pattern: the draw is part of the offered load
      // but cannot inject. Counted, not silently dropped — see
      // messages_skipped().
      ++messages_skipped_;
      continue;
    }
    Message m = fabric_->acquire_message();
    m.src = src;
    m.dst = dst;
    m.tag = messages_sent_;
    m.payload.assign(static_cast<std::size_t>(message_words_), 0xa5a5a5a5ULL);
    fabric_->send(std::move(m));
    ++messages_sent_;
  }
  fabric_->step();
  for (int node = 0; node < n; ++node) {
    while (auto msg = fabric_->try_receive(node)) {
      ++messages_received_;
      fabric_->recycle(std::move(*msg));
    }
  }
}

void TrafficGenerator::run(int cycles) {
  for (int i = 0; i < cycles; ++i) step();
}

}  // namespace renoc
