// Multithreaded NoC scenario-sweep harness.
//
// Latency/throughput characterization over a grid of {traffic pattern,
// mesh size, injection rate, message length, fault} scenarios. The grid
// is one util/sweep spec: run_noc_sweep() runs it through
// sweep::run_sweep_shard as a single shard on cfg.threads workers and
// decodes each record with noc_point_from_record(), the same spec and
// decoder tools/renoc_sweep uses across processes. Determinism:
//
//   - every scenario gets its own RNG stream, sweep::scenario_rng(seed,
//     scenario index) — never derived from the worker that runs it;
//   - each scenario is simulated end to end by exactly one worker into
//     its own record, and no cross-scenario state exists, so the result
//     vector is bit-identical for any thread count or shard split, and any
//     single scenario can be replayed in isolation with run_noc_scenario().
//
// Methodology per scenario: warm up, clear the stats, measure for a fixed
// window, then drain so every measured packet's latency is recorded.
// Offered load is reported both including and excluding pattern fixed-point
// skips (see TrafficGenerator::messages_skipped) so measured offered load
// can be checked against the configured rate.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/fabric.hpp"
#include "noc/fault_model.hpp"
#include "noc/traffic.hpp"
#include "util/sweep.hpp"

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
  int message_words = 4;
  BurstParams burst{};
  int hotspot = 0;
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
  std::vector<int> message_words = {4};
  // Degraded-fabric axes, appended INNERMOST in scenarios() so the default
  // size-1 axes keep every pre-existing scenario index (and stream) stable.
  std::vector<int> fault_counts = {0};
  std::vector<FaultKind> fault_kinds = {FaultKind::kLinkDead};
  std::vector<int> retry_budgets = {kGuardDisabled};
  BurstParams burst{};       ///< applied to every scenario
  int buffer_depth = 4;
  int warmup_cycles = 500;
  int measure_cycles = 2000;
  int drain_max_cycles = 2'000'000;
  int threads = 1;           ///< worker thread count (>= 1)
  std::uint64_t seed = 1;    ///< master seed for all per-scenario streams

  void validate() const;

  /// The scenario grid in its fixed enumeration order (pattern-major, then
  /// mesh side, injection rate, message length, fault count, fault kind,
  /// retry budget). Index i here is the scenario index fed to
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

/// The sweep as a util/sweep spec: one scenario per grid cell in
/// scenarios() order, 16-word records (counts raw, rates/latencies as
/// pack_double bit patterns). Decoded records equal run_noc_sweep()'s
/// points for any shard split or resume schedule. `cfg` must outlive the
/// spec.
sweep::SweepSpec make_noc_sweep_spec(const SweepConfig& cfg);

/// Decodes a kCompleted service record back into the SweepPoint
/// run_noc_sweep would have produced for that scenario.
SweepPoint noc_point_from_record(const SweepScenario& scenario,
                                 const sweep::ScenarioRecord& rec);

}  // namespace renoc
