#include "noc/traffic.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace renoc {

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniformRandom: return "uniform";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kNeighbor: return "neighbor";
  }
  return "?";
}

TrafficGenerator::TrafficGenerator(Fabric& fabric, TrafficPattern pattern,
                                   double injection_rate, int message_words,
                                   Rng rng, int hotspot)
    : fabric_(&fabric),
      pattern_(pattern),
      flit_rate_(injection_rate),
      message_words_(message_words),
      rng_(rng),
      hotspot_(hotspot) {
  RENOC_CHECK(injection_rate > 0.0 && injection_rate <= 1.0);
  RENOC_CHECK(message_words_ >= 1);
  RENOC_CHECK(hotspot_ >= 0 && hotspot_ < fabric.node_count());
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
  }
  RENOC_FAIL("unknown traffic pattern");
}

void TrafficGenerator::step() {
  const int n = fabric_->node_count();
  // Message-level Bernoulli injection: a node starts a new message with
  // probability flit_rate / message_words per cycle, giving the requested
  // average flit injection rate.
  const double p = flit_rate_ / message_words_;
  for (int src = 0; src < n; ++src) {
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
