// Multithreaded NoC scenario-sweep harness.
//
// Latency/throughput characterization over a grid of {traffic pattern,
// mesh size, injection rate, fault} scenarios. Every scenario sends
// 4-word messages (hotspot traffic targets node 0) through input FIFOs of
// NocConfig's default depth. run_noc_sweep() runs the grid through
// sweep::run_scenarios on cfg.threads workers, each scenario straight
// into its SweepPoint slot. Determinism:
//
//   - every scenario gets its own RNG stream, sweep::scenario_rng(seed,
//     scenario index) — never derived from the worker that runs it;
//   - each scenario is simulated end to end by exactly one worker into
//     its own slot, and no cross-scenario state exists, so the result
//     vector is bit-identical for any thread count, and any single
//     scenario can be replayed in isolation with run_noc_scenario().
//
// Methodology per scenario: warm up, clear the stats, measure for a fixed
// window, then drain so every measured packet's latency is recorded (a
// scenario that does not drain in 2,000,000 cycles fails with CheckError).
// Offered load is reported both including and excluding pattern fixed-point
// skips (see TrafficGenerator::messages_skipped) so measured offered load
// can be checked against the configured rate.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/fabric.hpp"
#include "noc/fault_model.hpp"
#include "noc/traffic.hpp"

namespace renoc {

/// Sentinel retry budget: leave the fabric pristine (no delivery guard, no
/// degraded mode). The default fault axes are {count 0} x {kLinkDead} x
/// {kGuardDisabled}, so a config that never mentions faults enumerates the
/// exact same scenario grid — same indices, same RNG streams, same results
/// — as before the fault axes existed.
inline constexpr int kGuardDisabled = -1;

/// One point of the sweep grid.
struct SweepScenario {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  GridDim dim{4, 4};
  double injection_rate = 0.1;  ///< flits/node/cycle
  // Degraded-fabric axes. fault_count > 0 installs a fault plan derived
  // from fault_scenario_rng(seed, scenario_index) — O(1) replayable, like
  // the traffic stream. retry_budget >= 0 configures the delivery guard.
  int fault_count = 0;
  FaultKind fault_kind = FaultKind::kLinkDead;
  int retry_budget = kGuardDisabled;
};

struct SweepConfig {
  std::vector<TrafficPattern> patterns = {TrafficPattern::kUniformRandom};
  std::vector<int> mesh_sides = {4};          ///< square meshes, side length
  std::vector<double> injection_rates = {0.1};
  // Degraded-fabric axes, appended INNERMOST in scenarios() so the default
  // size-1 axes keep every pre-existing scenario index (and stream) stable.
  std::vector<int> fault_counts = {0};
  std::vector<FaultKind> fault_kinds = {FaultKind::kLinkDead};
  std::vector<int> retry_budgets = {kGuardDisabled};
  int warmup_cycles = 500;
  int measure_cycles = 2000;
  int threads = 1;           ///< worker thread count (>= 1)
  std::uint64_t seed = 1;    ///< master seed for all per-scenario streams

  void validate() const;

  /// The scenario grid in its fixed enumeration order (pattern-major, then
  /// mesh side, injection rate, fault count, fault kind, retry budget). Index i here is the scenario index fed to
  /// sweep::scenario_rng and fault_scenario_rng.
  std::vector<SweepScenario> scenarios() const;
};

/// Measured results for one scenario.
struct SweepPoint {
  SweepScenario scenario;
  int scenario_index = 0;

  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;  ///< incl. drain-phase deliveries
  std::uint64_t messages_skipped = 0;   ///< pattern fixed-point draws
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;

  double offered_flit_rate = 0.0;   ///< incl. skips — tracks the config rate
  double injected_flit_rate = 0.0;  ///< offered minus skips
  /// Flits that *arrived within the measure window*, per node per cycle.
  /// Drain-phase arrivals are excluded so a saturated mesh shows
  /// accepted < offered (they still feed the latency stats below).
  double accepted_flit_rate = 0.0;

  double avg_latency_cycles = 0.0;  ///< head injection to tail ejection
  double max_latency_cycles = 0.0;
  std::uint64_t cycles = 0;         ///< measure + drain cycles simulated

  // Delivery-guarantee counters (NocStats), measure window + drain. All
  // zero for pristine scenarios; on a degraded fabric every message the NI
  // accepted resolves as exactly one of delivered/dropped/unreachable.
  std::uint64_t packets_retried = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_unreachable = 0;
  std::uint64_t duplicates_suppressed = 0;
  int route_epochs = 0;  ///< topology-change epochs over the whole run
};

/// Runs the sweep; returns one SweepPoint per scenario in scenarios()
/// order, independent of cfg.threads.
std::vector<SweepPoint> run_noc_sweep(const SweepConfig& cfg);

/// Simulates one scenario exactly as the sweep would (same RNG stream,
/// same warm-up/measure/drain schedule). run_noc_sweep(cfg)[i] ==
/// run_noc_scenario(cfg.scenarios()[i], cfg, i) for every i.
SweepPoint run_noc_scenario(const SweepScenario& scenario,
                            const SweepConfig& cfg, int scenario_index);

}  // namespace renoc
