#include "noc/sweep_harness.hpp"

#include <memory>

#include "util/check.hpp"

namespace renoc {

void SweepConfig::validate() const {
  // Axis and thread checks come from util/sweep so all three harnesses
  // fail with the same pinned messages (sweep_test asserts on them).
  sweep::require_axis(!patterns.empty(), "pattern");
  sweep::require_axis(!mesh_sides.empty(), "mesh side");
  sweep::require_axis(!injection_rates.empty(), "injection rate");
  sweep::require_axis(!message_words.empty(), "message length");
  for (int side : mesh_sides)
    RENOC_CHECK_MSG(side >= 2, "mesh side must be >= 2, got " << side);
  for (double rate : injection_rates)
    RENOC_CHECK_MSG(rate > 0.0 && rate <= 1.0,
                    "injection rate must be in (0, 1], got " << rate);
  for (int words : message_words)
    RENOC_CHECK_MSG(words >= 1, "message length must be >= 1");
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
  RENOC_CHECK(buffer_depth >= 1);
  RENOC_CHECK(warmup_cycles >= 0);
  RENOC_CHECK(measure_cycles >= 1);
  RENOC_CHECK(drain_max_cycles >= 1);
  sweep::require_threads(threads);
  burst.validate();
  // TrafficGenerator's own precondition, hoisted here so an infeasible
  // burst/rate combination fails up front instead of inside a worker.
  for (double rate : injection_rates)
    for (int words : message_words)
      RENOC_CHECK_MSG(
          rate / words / burst.duty_cycle() <= 1.0,
          "on-state injection probability exceeds 1 for rate "
              << rate << ", " << words
              << "-word messages — raise the burst duty cycle");
}

std::vector<SweepScenario> SweepConfig::scenarios() const {
  // Enumerate through the shared row-major index decoder (pattern-major,
  // fault axes innermost — byte-identical to the nested loops this
  // replaced), so a scenario index means the same cell here, in the
  // service's shards, and in any replay.
  const std::vector<std::int64_t> shape = {
      static_cast<std::int64_t>(patterns.size()),
      static_cast<std::int64_t>(mesh_sides.size()),
      static_cast<std::int64_t>(injection_rates.size()),
      static_cast<std::int64_t>(message_words.size()),
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
    sc.message_words = message_words[static_cast<std::size_t>(d[3])];
    sc.burst = burst;
    sc.fault_count = fault_counts[static_cast<std::size_t>(d[4])];
    sc.fault_kind = fault_kinds[static_cast<std::size_t>(d[5])];
    sc.retry_budget = retry_budgets[static_cast<std::size_t>(d[6])];
    out.push_back(sc);
  }
  return out;
}

SweepPoint run_noc_scenario(const SweepScenario& scenario,
                            const SweepConfig& cfg, int scenario_index) {
  NocConfig ncfg;
  ncfg.dim = scenario.dim;
  ncfg.buffer_depth = cfg.buffer_depth;
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
                       scenario.message_words,
                       sweep::scenario_rng(cfg.seed, scenario_index),
                       scenario.hotspot, scenario.burst);

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
    RENOC_CHECK_MSG(++drained <= cfg.drain_max_cycles,
                    "scenario failed to drain in " << cfg.drain_max_cycles
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
      scenario.message_words / node_cycles;
  point.injected_flit_rate =
      static_cast<double>(point.messages_sent) * scenario.message_words /
      node_cycles;
  point.accepted_flit_rate =
      static_cast<double>(flits_in_window) / node_cycles;
  return point;
}

namespace {

// Service-record layout: one 16-word record per grid cell.
enum NocWord {
  kMessagesSent = 0,
  kMessagesReceived,
  kMessagesSkipped,
  kPacketsDelivered,
  kFlitsDelivered,
  kOfferedRate,
  kInjectedRate,
  kAcceptedRate,
  kAvgLatency,
  kMaxLatency,
  kCycles,
  kPacketsRetried,
  kPacketsDropped,
  kPacketsUnreachable,
  kDuplicatesSuppressed,
  kRouteEpochs,
};
constexpr int kNocRecordWords = 16;

}  // namespace

sweep::SweepSpec make_noc_sweep_spec(const SweepConfig& cfg) {
  cfg.validate();
  sweep::SweepSpec spec;
  const auto grid =
      std::make_shared<const std::vector<SweepScenario>>(cfg.scenarios());
  spec.enumerated = static_cast<std::int64_t>(grid->size());
  spec.record_words = kNocRecordWords;
  // Fingerprint everything that determines a scenario's measurement;
  // threads are excluded (results are thread-count invariant).
  sweep::DigestBuilder digest;
  digest.fold_string("noc").fold(cfg.seed);
  for (const TrafficPattern p : cfg.patterns)
    digest.fold_int(static_cast<int>(p));
  for (const int side : cfg.mesh_sides) digest.fold_int(side);
  for (const double rate : cfg.injection_rates) digest.fold_real(rate);
  for (const int words : cfg.message_words) digest.fold_int(words);
  for (const int count : cfg.fault_counts) digest.fold_int(count);
  for (const FaultKind kind : cfg.fault_kinds)
    digest.fold_int(static_cast<int>(kind));
  for (const int budget : cfg.retry_budgets) digest.fold_int(budget);
  digest.fold_int(cfg.burst.enabled ? 1 : 0)
      .fold_real(cfg.burst.p_on_to_off)
      .fold_real(cfg.burst.p_off_to_on)
      .fold_int(cfg.buffer_depth)
      .fold_int(cfg.warmup_cycles)
      .fold_int(cfg.measure_cycles)
      .fold_int(cfg.drain_max_cycles);
  spec.config_digest = digest.digest();

  spec.make_runner = [grid, &cfg]() {
    return [grid, &cfg](std::int64_t scenario, std::uint64_t* words) {
      const SweepPoint point = run_noc_scenario(
          (*grid)[static_cast<std::size_t>(scenario)], cfg,
          static_cast<int>(scenario));
      words[kMessagesSent] = point.messages_sent;
      words[kMessagesReceived] = point.messages_received;
      words[kMessagesSkipped] = point.messages_skipped;
      words[kPacketsDelivered] = point.packets_delivered;
      words[kFlitsDelivered] = point.flits_delivered;
      words[kOfferedRate] = sweep::pack_double(point.offered_flit_rate);
      words[kInjectedRate] = sweep::pack_double(point.injected_flit_rate);
      words[kAcceptedRate] = sweep::pack_double(point.accepted_flit_rate);
      words[kAvgLatency] = sweep::pack_double(point.avg_latency_cycles);
      words[kMaxLatency] = sweep::pack_double(point.max_latency_cycles);
      words[kCycles] = point.cycles;
      words[kPacketsRetried] = point.packets_retried;
      words[kPacketsDropped] = point.packets_dropped;
      words[kPacketsUnreachable] = point.packets_unreachable;
      words[kDuplicatesSuppressed] = point.duplicates_suppressed;
      words[kRouteEpochs] = static_cast<std::uint64_t>(point.route_epochs);
    };
  };
  return spec;
}

SweepPoint noc_point_from_record(const SweepScenario& scenario,
                                 const sweep::ScenarioRecord& rec) {
  RENOC_CHECK_MSG(rec.outcome == sweep::Outcome::kCompleted &&
                      rec.words.size() == kNocRecordWords,
                  "NoC record for scenario " << rec.scenario
                                             << " is not a completed "
                                             << kNocRecordWords
                                             << "-word record");
  SweepPoint point;
  point.scenario = scenario;
  point.scenario_index = static_cast<int>(rec.scenario);
  point.messages_sent = rec.words[kMessagesSent];
  point.messages_received = rec.words[kMessagesReceived];
  point.messages_skipped = rec.words[kMessagesSkipped];
  point.packets_delivered = rec.words[kPacketsDelivered];
  point.flits_delivered = rec.words[kFlitsDelivered];
  point.offered_flit_rate = sweep::unpack_double(rec.words[kOfferedRate]);
  point.injected_flit_rate = sweep::unpack_double(rec.words[kInjectedRate]);
  point.accepted_flit_rate = sweep::unpack_double(rec.words[kAcceptedRate]);
  point.avg_latency_cycles = sweep::unpack_double(rec.words[kAvgLatency]);
  point.max_latency_cycles = sweep::unpack_double(rec.words[kMaxLatency]);
  point.cycles = rec.words[kCycles];
  point.packets_retried = rec.words[kPacketsRetried];
  point.packets_dropped = rec.words[kPacketsDropped];
  point.packets_unreachable = rec.words[kPacketsUnreachable];
  point.duplicates_suppressed = rec.words[kDuplicatesSuppressed];
  point.route_epochs = static_cast<int>(rec.words[kRouteEpochs]);
  return point;
}

std::vector<SweepPoint> run_noc_sweep(const SweepConfig& cfg) {
  sweep::ShardRunOptions run;
  run.threads = cfg.threads;
  const std::vector<sweep::ScenarioRecord> records =
      sweep::run_sweep_shard(make_noc_sweep_spec(cfg), run).records;
  const std::vector<SweepScenario> grid = cfg.scenarios();
  std::vector<SweepPoint> out;
  out.reserve(records.size());
  for (const sweep::ScenarioRecord& rec : records)
    out.push_back(noc_point_from_record(
        grid[static_cast<std::size_t>(rec.scenario)], rec));
  return out;
}

}  // namespace renoc
