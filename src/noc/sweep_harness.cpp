#include "noc/sweep_harness.hpp"

#include "util/check.hpp"
#include "util/sweep.hpp"

namespace renoc {
namespace {

// Every scenario's message length and hotspot target, and the drain
// bound after its measure window.
constexpr int kMessageWords = 4;
constexpr int kHotspotNode = 0;
constexpr int kDrainMaxCycles = 2'000'000;

}  // namespace

void SweepConfig::validate() const {
  // Axis and thread checks come from util/sweep so every sweep fails with
  // the same pinned messages (sweep_test asserts on them).
  sweep::require_axis(!patterns.empty(), "pattern");
  sweep::require_axis(!mesh_sides.empty(), "mesh side");
  sweep::require_axis(!injection_rates.empty(), "injection rate");
  for (int side : mesh_sides)
    RENOC_CHECK_MSG(side >= 2, "mesh side must be >= 2, got " << side);
  for (double rate : injection_rates)
    RENOC_CHECK_MSG(rate > 0.0 && rate <= 1.0,
                    "injection rate must be in (0, 1], got " << rate);
  sweep::require_axis(!fault_counts.empty(), "fault count");
  sweep::require_axis(!fault_kinds.empty(), "fault kind");
  sweep::require_axis(!retry_budgets.empty(), "retry budget");
  for (int budget : retry_budgets)
    RENOC_CHECK_MSG(budget >= kGuardDisabled,
                    "retry budget must be >= -1, got " << budget);
  // Every (mesh, kind, count) combination must be a valid FaultSpec, so an
  // oversubscribed fault axis fails up front instead of inside a worker.
  for (int side : mesh_sides)
    for (FaultKind kind : fault_kinds)
      for (int count : fault_counts) {
        RENOC_CHECK_MSG(count >= 0, "fault count must be >= 0, got " << count);
        if (count == 0) continue;
        FaultSpec spec;
        spec.kind = kind;
        spec.count = count;
        spec.validate(GridDim{side, side});
      }
  RENOC_CHECK(warmup_cycles >= 0);
  RENOC_CHECK(measure_cycles >= 1);
  sweep::require_threads(threads);
}

std::vector<SweepScenario> SweepConfig::scenarios() const {
  // Enumerate through the shared row-major index decoder (pattern-major,
  // fault axes innermost — byte-identical to the nested loops this
  // replaced), so a scenario index means the same cell here and in any
  // replay.
  const std::vector<std::int64_t> shape = {
      static_cast<std::int64_t>(patterns.size()),
      static_cast<std::int64_t>(mesh_sides.size()),
      static_cast<std::int64_t>(injection_rates.size()),
      static_cast<std::int64_t>(fault_counts.size()),
      static_cast<std::int64_t>(fault_kinds.size()),
      static_cast<std::int64_t>(retry_budgets.size())};
  const std::int64_t total = sweep::axis_product(shape);
  std::vector<SweepScenario> out;
  out.reserve(static_cast<std::size_t>(total));
  std::vector<std::int64_t> d;
  for (std::int64_t i = 0; i < total; ++i) {
    sweep::decode_scenario_index(i, shape, d);
    SweepScenario sc;
    sc.pattern = patterns[static_cast<std::size_t>(d[0])];
    const int side = mesh_sides[static_cast<std::size_t>(d[1])];
    sc.dim = GridDim{side, side};
    sc.injection_rate = injection_rates[static_cast<std::size_t>(d[2])];
    sc.fault_count = fault_counts[static_cast<std::size_t>(d[3])];
    sc.fault_kind = fault_kinds[static_cast<std::size_t>(d[4])];
    sc.retry_budget = retry_budgets[static_cast<std::size_t>(d[5])];
    out.push_back(sc);
  }
  return out;
}

SweepPoint run_noc_scenario(const SweepScenario& scenario,
                            const SweepConfig& cfg, int scenario_index) {
  NocConfig ncfg;
  ncfg.dim = scenario.dim;
  Fabric fabric(ncfg);
  // Degraded-fabric setup happens before the first step, while the fabric
  // is idle. The fault plan's stream is salted separately from the traffic
  // stream but derived from the same (seed, scenario_index) pair, so any
  // scenario — faulty or not — replays in O(1) with run_noc_scenario().
  if (scenario.retry_budget >= 0) {
    DeliveryGuardConfig guard;
    guard.retry_budget = scenario.retry_budget;
    fabric.configure_delivery_guard(guard);
  }
  if (scenario.fault_count > 0) {
    FaultSpec spec;
    spec.kind = scenario.fault_kind;
    spec.count = scenario.fault_count;
    // Faults land inside the measured window so the delivery guard's
    // counters have something to say.
    spec.onset_min = static_cast<Cycle>(cfg.warmup_cycles);
    spec.onset_max =
        static_cast<Cycle>(cfg.warmup_cycles + cfg.measure_cycles);
    fabric.install_fault_plan(
        make_fault_plan(scenario.dim, spec,
                        fault_scenario_rng(cfg.seed, scenario_index)));
  }
  TrafficGenerator gen(fabric, scenario.pattern, scenario.injection_rate,
                       kMessageWords,
                       sweep::scenario_rng(cfg.seed, scenario_index),
                       kHotspotNode);

  gen.run(cfg.warmup_cycles);
  // Measure from a clean slate: warm-up packets drop out of the stats, and
  // every packet delivered from here on (including the drain tail) has its
  // latency recorded.
  fabric.stats().clear();
  const std::uint64_t sent0 = gen.messages_sent();
  const std::uint64_t received0 = gen.messages_received();
  const std::uint64_t skipped0 = gen.messages_skipped();
  const Cycle measure_start = fabric.now();

  gen.run(cfg.measure_cycles);
  // Accepted throughput counts only flits that arrived inside the measure
  // window — the drain below exists so measured packets' latencies land in
  // the stats, and must not inflate the throughput curve (a saturated mesh
  // has to show accepted < offered).
  const std::uint64_t flits_in_window = fabric.stats().flits_delivered();

  SweepPoint point;
  point.scenario = scenario;
  point.scenario_index = scenario_index;
  point.messages_sent = gen.messages_sent() - sent0;
  point.messages_skipped = gen.messages_skipped() - skipped0;

  // Drain so in-flight measured packets land (injection stops: the
  // generator is no longer stepped, and the fabric has nothing staged
  // beyond its queues).
  std::uint64_t drain_received = 0;
  int drained = 0;
  while (!fabric.idle()) {
    fabric.step();
    for (int node = 0; node < fabric.node_count(); ++node)
      while (auto msg = fabric.try_receive(node)) {
        ++drain_received;
        fabric.recycle(std::move(*msg));
      }
    RENOC_CHECK_MSG(++drained <= kDrainMaxCycles,
                    "scenario failed to drain in " << kDrainMaxCycles
                                                   << " cycles");
  }
  point.messages_received =
      gen.messages_received() - received0 + drain_received;

  const NetworkStats& stats = fabric.stats();
  point.packets_delivered = stats.packets_delivered();
  point.flits_delivered = stats.flits_delivered();
  point.avg_latency_cycles = stats.packet_latency().mean();
  point.max_latency_cycles = stats.packet_latency().max();
  point.cycles = fabric.now() - measure_start;
  point.packets_retried = stats.packets_retried();
  point.packets_dropped = stats.packets_dropped();
  point.packets_unreachable = stats.packets_unreachable();
  point.duplicates_suppressed = stats.duplicates_suppressed();
  point.route_epochs = fabric.route_epoch();

  const double node_cycles =
      static_cast<double>(scenario.dim.node_count()) *
      static_cast<double>(cfg.measure_cycles);
  point.offered_flit_rate =
      static_cast<double>(point.messages_sent + point.messages_skipped) *
      kMessageWords / node_cycles;
  point.injected_flit_rate =
      static_cast<double>(point.messages_sent) * kMessageWords / node_cycles;
  point.accepted_flit_rate =
      static_cast<double>(flits_in_window) / node_cycles;
  return point;
}

std::vector<SweepPoint> run_noc_sweep(const SweepConfig& cfg) {
  cfg.validate();
  const std::vector<SweepScenario> grid = cfg.scenarios();
  std::vector<SweepPoint> out(grid.size());
  sweep::run_scenarios(
      static_cast<std::int64_t>(grid.size()), cfg.threads,
      [&](int, std::int64_t scenario) {
        const auto i = static_cast<std::size_t>(scenario);
        out[i] = run_noc_scenario(grid[i], cfg, static_cast<int>(scenario));
      });
  return out;
}

}  // namespace renoc
