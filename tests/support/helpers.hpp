// Small test-only helpers over the library's public types.
//
// Each was a library function that no production binary links; tests use
// them to build inputs and to state invariants, so they live here, where
// no library file can depend on them (scripts/reachability.sh keeps the
// library to what the paper run, the tools, the examples and the
// benchmark use).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/phase_scheduler.hpp"
#include "floorplan/grid.hpp"
#include "ldpc/code.hpp"
#include "ldpc/partition.hpp"
#include "noc/sweep_harness.hpp"
#include "thermal/rc_network.hpp"

namespace renoc {

/// Expands a per-die-block power vector (size net.die_count()) to a full
/// node power vector (zeros for package nodes).
std::vector<double> expand_die_power(const RcNetwork& net,
                                     const std::vector<double>& die_power);

/// Round-robin interleaving across `clusters` (maximally scattered; high
/// traffic, flat compute).
Partition make_interleaved_partition(const LdpcCode& code, int clusters);

/// True if every pair of moves in the phase uses disjoint directed links
/// of their XY paths.
bool phase_is_link_disjoint(const MigrationPhase& phase, const GridDim& dim);

/// Names of the fields in which two sweep points differ, comma-separated
/// in declaration order, or "" when they agree in every field: every
/// SweepScenario field (the burst parameters included), the scenario
/// index, every count, rate and latency, and every delivery-guard
/// counter. Reals compare exactly, so "" means bit-identical results.
std::string sweep_point_diff(const SweepPoint& a, const SweepPoint& b);

namespace sweep {

/// Inverse of decode_scenario_index. digits[k] must be in [0, shape[k]).
std::int64_t encode_scenario_index(const std::vector<std::int64_t>& digits,
                                   const std::vector<std::int64_t>& shape);

}  // namespace sweep
}  // namespace renoc
