// Deterministic fault plans for degraded-fabric NoC runs.
//
// A FaultPlan is a fixed, replayable schedule of topology changes: mesh
// links killed at given cycles, plus transient "flaky link" windows (a
// link goes down at one cycle and recovers at a later one). Plans are
// generated statelessly from a seed — the same (seed, scenario) pair
// always yields the same plan, on any thread, in any order — which is
// what lets the fault axes of noc/sweep_harness keep the
// bit-identical-for-any-thread-count and O(1) single-scenario replay
// contracts of the zero-fault sweep.
//
// The plan is pure data. The Fabric consumes it via install_fault_plan():
// at each event cycle it applies the change, rebuilds the adaptive route
// tables (outside the hot regions), and purges packets the change strands
// — every purged packet is recorded in NocStats, never silently lost.
#pragma once

#include <cstdint>
#include <vector>

#include "floorplan/grid.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace renoc {

/// Fault families a plan can inject (the sweep's fault_kind axis). A dead
/// link is a flaky link without its recovery.
enum class FaultKind : std::uint8_t {
  kLinkDead = 0,   ///< unidirectional mesh links killed permanently
  kLinkFlaky = 1,  ///< links down for a bounded window, then recovered
};

/// One atomic topology change. Flaky-link faults expand into a kLinkDown /
/// kLinkUp pair so the fabric only ever sees monotone per-event changes.
struct FaultEvent {
  enum class Kind : std::uint8_t { kLinkDown = 0, kLinkUp = 1 };
  Kind kind = Kind::kLinkDown;
  Cycle cycle = 0;  ///< applied at the start of this cycle
  int node = 0;     ///< link source node
  int port = 0;     ///< mesh output direction 0..3
};

/// Generation parameters for make_fault_plan.
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDead;
  int count = 0;            ///< faults to inject (distinct victims)
  Cycle onset_min = 0;      ///< fault cycles drawn uniformly in
  Cycle onset_max = 1000;   ///<   [onset_min, onset_max]
  Cycle flake_min = 100;    ///< flaky-window length drawn uniformly in
  Cycle flake_max = 400;    ///<   [flake_min, flake_max]

  void validate(const GridDim& dim) const;
};

/// A replayable schedule of topology changes, sorted by (cycle, kind,
/// node, port) so application order is total and deterministic.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

/// Generates the plan for `spec` on a `dim` mesh by drawing victims and
/// cycles from `rng`. Victims are sampled without replacement over the
/// unidirectional mesh links; a given link appears in at most one fault.
FaultPlan make_fault_plan(const GridDim& dim, const FaultSpec& spec, Rng rng);

/// The RNG stream a sweep scenario's fault plan draws from. Salted so the
/// fault stream never collides with the scenario's traffic stream
/// (sweep::scenario_rng) for any (seed, index) pair; stateless, so any
/// scenario's plan is reachable in O(1), whichever worker runs it.
Rng fault_scenario_rng(std::uint64_t seed, int scenario_index);

}  // namespace renoc
