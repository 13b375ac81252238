#include "core/phase_scheduler.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "noc/routing.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

/// Directed links (from-node, to-node) traversed by the XY path of a move.
std::vector<std::pair<int, int>> move_links(const MigrationMove& mv,
                                            const GridDim& dim) {
  const std::vector<int> path = xy_path(index_to_coord(mv.src_tile, dim),
                                        index_to_coord(mv.dst_tile, dim), dim);
  std::vector<std::pair<int, int>> links;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    links.emplace_back(path[i], path[i + 1]);
  return links;
}

}  // namespace

std::vector<MigrationPhase> schedule_phases(
    const std::vector<MigrationMove>& moves, const GridDim& dim) {
  std::vector<MigrationMove> remaining;
  for (const MigrationMove& mv : moves) {
    RENOC_CHECK(mv.src_tile >= 0 && mv.src_tile < dim.node_count());
    RENOC_CHECK(mv.dst_tile >= 0 && mv.dst_tile < dim.node_count());
    if (mv.src_tile != mv.dst_tile) remaining.push_back(mv);
  }

  std::vector<MigrationPhase> phases;
  while (!remaining.empty()) {
    MigrationPhase phase;
    std::set<std::pair<int, int>> used;
    std::vector<MigrationMove> deferred;
    for (const MigrationMove& mv : remaining) {
      const auto links = move_links(mv, dim);
      const bool clash = std::any_of(
          links.begin(), links.end(),
          [&used](const auto& l) { return used.count(l) > 0; });
      if (clash) {
        deferred.push_back(mv);
        continue;
      }
      used.insert(links.begin(), links.end());
      phase.moves.push_back(mv);
    }
    RENOC_CHECK_MSG(!phase.moves.empty(),
                    "phase scheduler made no progress");  // unreachable
    phases.push_back(std::move(phase));
    remaining = std::move(deferred);
  }
  return phases;
}

int phase_duration_cycles(const MigrationPhase& phase, const GridDim& dim) {
  // Fixed per-packet cycles on top of the hop and flit terms.
  constexpr int kPipelineCycles = 4;
  int worst = 0;
  for (const MigrationMove& mv : phase.moves) {
    const int hops = manhattan(index_to_coord(mv.src_tile, dim),
                               index_to_coord(mv.dst_tile, dim));
    // Head needs `hops` link traversals plus per-hop switch allocation;
    // the remaining flits stream behind at one per cycle.
    const int flits = std::max(1, mv.state_words);
    worst = std::max(worst, 2 * hops + flits + kPipelineCycles);
  }
  return worst;
}

}  // namespace renoc
