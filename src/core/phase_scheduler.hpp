// Congestion-free phased migration (Section 2.2).
//
// "During the migration operation, it is possible to ensure congestion-
// free packet movement by transforming groups of PEs in phases. This
// congestion-free operation allows for deterministic migration times,
// making our technique applicable to real-time systems."
//
// A migration is a set of state-transfer moves (one per PE), each of which
// becomes one wormhole packet routed XY. Two moves can share a phase only
// if their XY paths use disjoint directed mesh links — then no packet ever
// waits on another, every phase's duration is exactly computable from the
// path length and packet size, and the total migration time is
// deterministic. The scheduler packs moves greedily into phases and the
// tests verify the disjointness and coverage invariants.
#pragma once

#include <vector>

#include "floorplan/grid.hpp"

namespace renoc {

/// One PE's state transfer.
struct MigrationMove {
  int src_tile = 0;
  int dst_tile = 0;
  int state_words = 0;  ///< payload words of configuration+state
};

/// A group of moves whose XY paths are pairwise link-disjoint.
struct MigrationPhase {
  std::vector<MigrationMove> moves;
};

/// Packs `moves` into congestion-free phases (greedy first-fit in input
/// order; deterministic). Self-moves (src == dst, fixed points of the
/// transform) are dropped — no state needs to travel.
std::vector<MigrationPhase> schedule_phases(
    const std::vector<MigrationMove>& moves, const GridDim& dim);

/// Analytic duration bound of one phase in cycles on an uncontended mesh
/// with 1-cycle links and one-flit-per-cycle injection: the slowest move
/// needs its head to cover `hops` links plus its remaining flits to stream
/// behind. Link-disjointness makes this a valid per-phase bound, which is
/// what makes the total migration time deterministic; tests verify the
/// simulated duration never exceeds it and is run-to-run identical.
int phase_duration_cycles(const MigrationPhase& phase, const GridDim& dim);

}  // namespace renoc
