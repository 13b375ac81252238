#include "noc/routing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace renoc {

Direction opposite(Direction d) {
  switch (d) {
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kEast: return Direction::kWest;
    case Direction::kWest: return Direction::kEast;
    case Direction::kLocal: break;
  }
  RENOC_FAIL("kLocal has no opposite direction");
}

Direction xy_route(const GridCoord& here, const GridCoord& dst) {
  if (dst.x > here.x) return Direction::kEast;
  if (dst.x < here.x) return Direction::kWest;
  if (dst.y > here.y) return Direction::kNorth;
  if (dst.y < here.y) return Direction::kSouth;
  return Direction::kLocal;
}

GridCoord neighbor(const GridCoord& c, Direction d) {
  switch (d) {
    case Direction::kNorth: return {c.x, c.y + 1};
    case Direction::kSouth: return {c.x, c.y - 1};
    case Direction::kEast: return {c.x + 1, c.y};
    case Direction::kWest: return {c.x - 1, c.y};
    case Direction::kLocal: break;
  }
  RENOC_FAIL("neighbor() requires a mesh direction");
}

std::vector<int> xy_path(const GridCoord& src, const GridCoord& dst,
                         const GridDim& dim) {
  RENOC_CHECK(in_bounds(src, dim) && in_bounds(dst, dim));
  std::vector<int> path;
  GridCoord cur = src;
  path.push_back(coord_to_index(cur, dim));
  while (!(cur == dst)) {
    cur = neighbor(cur, xy_route(cur, dst));
    path.push_back(coord_to_index(cur, dim));
  }
  return path;
}

bool turn_allowed(Direction moving, Direction out) {
  if (out == Direction::kLocal) return true;   // ejection
  if (moving == Direction::kLocal) return true;  // injection
  if (out == opposite(moving)) return false;     // no 180-degree turns
  // West-first: all westward hops happen before any other hop, so the only
  // way to be moving west is to have been moving west (or injecting).
  if (out == Direction::kWest && moving != Direction::kWest) return false;
  return true;
}

void build_adaptive_routes(const GridDim& dim,
                           const std::vector<std::uint8_t>& link_up,
                           std::vector<std::uint8_t>& table) {
  const int n = dim.node_count();
  const std::size_t nodes = static_cast<std::size_t>(n);
  RENOC_CHECK(link_up.size() == nodes * 4);
  table.assign(nodes * kDirectionCount * nodes, kUnreachableRoute);

  // Per destination: backward BFS over the state graph (node, moving
  // direction). State (v, md) means "a flit at v that arrived travelling
  // md" (md == kLocal: freshly injected at v). dist is hops to dst over
  // live links using only west-first-legal turns; next_hop[(v, md)] is the
  // first output of one shortest such path. BFS order (fixed seed order,
  // FIFO queue, fixed predecessor scan order) makes the tie-break
  // deterministic — table contents are a pure function of the topology.
  const std::size_t states = nodes * kDirectionCount;
  std::vector<std::uint8_t> next_hop(states);
  std::vector<std::uint8_t> visited(states);
  std::vector<std::uint32_t> queue;
  queue.reserve(states);
  const auto state_of = [nodes](int v, int md) {
    return static_cast<std::size_t>(v) * kDirectionCount +
           static_cast<std::size_t>(md);
  };

  for (int dst = 0; dst < n; ++dst) {
    std::fill(next_hop.begin(), next_hop.end(), kUnreachableRoute);
    std::fill(visited.begin(), visited.end(), std::uint8_t{0});
    queue.clear();
    for (int md = 0; md < kDirectionCount; ++md) {
      const std::size_t s = state_of(dst, md);
      next_hop[s] = static_cast<std::uint8_t>(Direction::kLocal);
      visited[s] = 1;
      queue.push_back(static_cast<std::uint32_t>(s));
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t s = queue[qi];
      const int v = static_cast<int>(s) / kDirectionCount;
      const int md = static_cast<int>(s) % kDirectionCount;
      // A state with md == kLocal is an injection start: nothing precedes
      // it. Otherwise the flit came from u = neighbor against md via u's
      // output md; extend every legal predecessor travel direction.
      if (md == static_cast<int>(Direction::kLocal)) continue;
      const Direction move = static_cast<Direction>(md);
      const GridCoord from =
          neighbor(index_to_coord(v, dim), opposite(move));
      if (!in_bounds(from, dim)) continue;
      const int u = coord_to_index(from, dim);
      if (link_up[static_cast<std::size_t>(u) * 4 +
                  static_cast<std::size_t>(md)] == 0)
        continue;
      for (int pmd = 0; pmd < kDirectionCount; ++pmd) {
        if (!turn_allowed(static_cast<Direction>(pmd), move)) continue;
        const std::size_t ps = state_of(u, pmd);
        if (visited[ps] != 0) continue;
        visited[ps] = 1;
        next_hop[ps] = static_cast<std::uint8_t>(md);
        queue.push_back(static_cast<std::uint32_t>(ps));
      }
    }
    // Project states onto the (node, input port) key the fabric indexes
    // by: a flit buffered in mesh input port p is travelling opposite(p);
    // the local port holds freshly injected flits.
    for (int v = 0; v < n; ++v) {
      for (int p = 0; p < kDirectionCount; ++p) {
        const int md =
            p == static_cast<int>(Direction::kLocal)
                ? p
                : static_cast<int>(opposite(static_cast<Direction>(p)));
        table[(static_cast<std::size_t>(v) * kDirectionCount +
               static_cast<std::size_t>(p)) *
                  nodes +
              static_cast<std::size_t>(dst)] = next_hop[state_of(v, md)];
      }
    }
  }
}

}  // namespace renoc
