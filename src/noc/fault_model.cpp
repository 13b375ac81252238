#include "noc/fault_model.hpp"

#include <algorithm>

#include "noc/routing.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

// Distinguishes the fault stream from the traffic stream derived from the
// same (seed, scenario) pair. An arbitrary odd constant folded through
// mix64 below; pinned by the determinism tests in noc_fault_test.cpp.
constexpr std::uint64_t kFaultStreamSalt = 0xfa517ab1e0c0ffeeULL;

/// All unidirectional mesh links of `dim` as (node, port) pairs, in node-
/// then-port order. The enumeration order is part of plan determinism.
std::vector<FaultEvent> enumerate_links(const GridDim& dim) {
  std::vector<FaultEvent> links;
  for (int node = 0; node < dim.node_count(); ++node) {
    const GridCoord here = index_to_coord(node, dim);
    for (int d = 0; d < 4; ++d) {
      if (!in_bounds(neighbor(here, static_cast<Direction>(d)), dim)) continue;
      FaultEvent e;
      e.node = node;
      e.port = d;
      links.push_back(e);
    }
  }
  return links;
}

/// Draws `count` distinct indices from [0, pool) via a partial
/// Fisher–Yates shuffle over an index vector.
std::vector<std::size_t> sample_without_replacement(std::size_t pool,
                                                    std::size_t count,
                                                    Rng& rng) {
  std::vector<std::size_t> idx(pool);
  for (std::size_t i = 0; i < pool; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.next_index(pool - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

Cycle draw_cycle(Cycle lo, Cycle hi, Rng& rng) {
  return lo + static_cast<Cycle>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

}  // namespace

void FaultSpec::validate(const GridDim& dim) const {
  RENOC_CHECK_MSG(count >= 0, "fault count must be >= 0, got " << count);
  RENOC_CHECK(onset_min <= onset_max);
  // The flake window only exists for flaky links; dead-link specs may
  // leave the unused fields zeroed.
  if (kind == FaultKind::kLinkFlaky)
    RENOC_CHECK(flake_min >= 1 && flake_min <= flake_max);
  const std::size_t links = enumerate_links(dim).size();
  RENOC_CHECK_MSG(static_cast<std::size_t>(count) <= links,
                  "mesh has only " << links << " links, requested " << count
                                   << " link faults");
}

FaultPlan make_fault_plan(const GridDim& dim, const FaultSpec& spec, Rng rng) {
  spec.validate(dim);
  FaultPlan plan;
  if (spec.count == 0) return plan;
  const std::size_t count = static_cast<std::size_t>(spec.count);

  const std::vector<FaultEvent> links = enumerate_links(dim);
  const std::vector<std::size_t> victims =
      sample_without_replacement(links.size(), count, rng);
  for (const std::size_t v : victims) {
    FaultEvent down = links[v];
    down.kind = FaultEvent::Kind::kLinkDown;
    down.cycle = draw_cycle(spec.onset_min, spec.onset_max, rng);
    plan.events.push_back(down);
    if (spec.kind == FaultKind::kLinkFlaky) {
      FaultEvent up = down;
      up.kind = FaultEvent::Kind::kLinkUp;
      up.cycle = down.cycle + draw_cycle(spec.flake_min, spec.flake_max, rng);
      plan.events.push_back(up);
    }
  }

  // Total order: application order must not depend on generation order.
  // A link's kLinkUp always sorts after its own kLinkDown (strictly later
  // cycle, flake_min >= 1), so sorting cannot invert a flake window.
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.kind != b.kind)
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              if (a.node != b.node) return a.node < b.node;
              return a.port < b.port;
            });
  return plan;
}

Rng fault_scenario_rng(std::uint64_t seed, int scenario_index) {
  RENOC_CHECK(scenario_index >= 0);
  return Rng(derive_stream_seed(mix64(seed ^ kFaultStreamSalt),
                                static_cast<std::uint64_t>(scenario_index)));
}

}  // namespace renoc
