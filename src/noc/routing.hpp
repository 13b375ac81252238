// Dimension-order (XY) routing on a 2-D mesh, plus the table-driven
// adaptive route layer used on degraded fabrics.
//
// XY routing first corrects the X coordinate, then the Y coordinate, then
// ejects locally. On a mesh with one flit class this is provably
// deadlock-free (no turn from Y back to X exists), which is why the paper's
// platform — like most NoC prototypes of the era — uses it.
//
// When links die, XY's fixed paths break. build_adaptive_routes
// computes per-node next-hop tables by BFS over the *live-link* graph under
// the west-first turn restriction (Glass & Ni): a packet takes all of its
// westward hops first, so the two turns into west (north->west,
// south->west) and all 180-degree turns are forbidden. Prohibiting those
// turns leaves the channel dependency graph acyclic, so any set of routes
// drawn from the table is deadlock-free — including routes re-planned
// mid-flight after a topology change, because the table is keyed by the
// flit's current travel direction and only ever extends a west-first-legal
// suffix. Destinations no west-first-legal live path reaches are marked
// kUnreachableRoute; the fabric reports such packets instead of spinning.
#pragma once

#include <cstdint>
#include <vector>

#include "floorplan/grid.hpp"

namespace renoc {

/// Router port directions. kLocal is the PE/NI port.
enum class Direction : std::uint8_t {
  kNorth = 0,  // +y
  kSouth = 1,  // -y
  kEast = 2,   // +x
  kWest = 3,   // -x
  kLocal = 4,
};

inline constexpr int kDirectionCount = 5;

/// The opposite mesh direction (north<->south, east<->west). kLocal has no
/// opposite; passing it is a checked error.
Direction opposite(Direction d);

/// Next output port for a flit currently at `here` heading to `dst`.
Direction xy_route(const GridCoord& here, const GridCoord& dst);

/// Neighbor coordinate one hop in direction `d` (must not be kLocal).
GridCoord neighbor(const GridCoord& c, Direction d);

/// The full XY path from src to dst as a list of traversed node indices,
/// starting with src and ending with dst (inclusive). Used by the migration
/// phase scheduler to prove link-disjointness.
std::vector<int> xy_path(const GridCoord& src, const GridCoord& dst,
                         const GridDim& dim);

/// Adaptive-table sentinel: no west-first-legal live path to the
/// destination exists from this (node, travel direction).
inline constexpr std::uint8_t kUnreachableRoute = 0xFF;

/// West-first turn legality: may a flit travelling in direction `moving`
/// leave its current router through `out`? Freshly injected flits
/// (moving == kLocal) may go anywhere; ejection (out == kLocal) is always
/// legal; 180-degree turns and the two turns into west are not.
bool turn_allowed(Direction moving, Direction out);

/// Rebuilds the adaptive next-hop table for the live topology.
///
/// `link_up[node*4 + dir]` (nonzero = up) describes the surviving mesh.
/// The table is indexed
///   table[(node * kDirectionCount + in_port) * node_count + dst]
/// where in_port is the input FIFO holding the flit (kLocal = freshly
/// injected); entries are the output Direction, or kUnreachableRoute. The
/// in_port key carries the flit's travel direction (a flit in input port p
/// arrived moving opposite(p)), which is the state the west-first turn
/// restriction needs. Paths are BFS-shortest among the turn-legal live
/// paths, with a fixed deterministic tie-break.
///
/// Cost is O(node_count^2) per call — strictly a topology-change-epoch
/// operation. Calling it from inside a renoc-hot region is a lint error
/// (rule route-rebuild).
void build_adaptive_routes(const GridDim& dim,
                           const std::vector<std::uint8_t>& link_up,
                           std::vector<std::uint8_t>& table);

}  // namespace renoc
