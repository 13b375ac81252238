// Workload `noc_load`: one run_noc_sweep over patterns {uniform,
// transpose, hotspot} x meshes {4x4, 8x8} x rates {0.1, 0.3}
// flits/node/cycle x {0, 4} flaky links (retry budget 4), on 2 worker
// threads.
//
// Why: here the same noc::Fabric is busy on almost every cycle and is
// stepped by TrafficGenerator, not NocLdpcDecoder, so decoder idle-skip
// should change nothing while an active-set step() that loses on a
// saturated 8x8 mesh shows. The degraded-mode path (adaptive routes,
// delivery guard) and the util/sweep worker pool run only here.
//
// Scenarios start measuring at cycle 0 (no warm-up), so every message a
// scenario's NI accepted is counted in messages_sent and the conservation
// law delivered + dropped + unreachable == accepted can be checked exactly
// from the sweep's own records.
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/sweep_harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace renoc;

constexpr int kThreads = 2;

SweepConfig make_config(std::uint64_t seed, int threads) {
  SweepConfig cfg;
  // Largest scenarios first (the workers pull indices in order), so the
  // last scenarios to finish are short and the two workers end together
  // instead of waiting on a saturated 8x8 hotspot drain.
  cfg.patterns = {TrafficPattern::kHotspot, TrafficPattern::kTranspose,
                  TrafficPattern::kUniformRandom};
  cfg.mesh_sides = {8, 4};
  cfg.injection_rates = {0.3, 0.1};
  cfg.fault_counts = {0, 4};
  cfg.fault_kinds = {FaultKind::kLinkFlaky};
  cfg.retry_budgets = {4};
  cfg.warmup_cycles = 0;
  cfg.threads = threads;
  cfg.seed = seed;
  return cfg;
}

void record_point(PassResult& out, const SweepPoint& p) {
  ++out.attempted;
  if (p.packets_delivered + p.packets_dropped + p.packets_unreachable !=
      p.messages_sent)
    ++out.failed;
  out.sim_cycles += p.cycles;
  out.ints.insert(out.ints.end(),
                  {p.messages_sent, p.messages_received, p.messages_skipped,
                   p.packets_delivered, p.flits_delivered, p.cycles,
                   p.packets_retried, p.packets_dropped,
                   p.packets_unreachable, p.duplicates_suppressed,
                   static_cast<std::uint64_t>(p.route_epochs)});
  out.reals.insert(out.reals.end(),
                   {p.accepted_flit_rate, p.avg_latency_cycles});
}

PassResult record_sweep(const std::vector<SweepPoint>& points) {
  PassResult out;
  for (const SweepPoint& p : points) record_point(out, p);
  return out;
}

class NocLoadWorkload final : public Workload {
 public:
  explicit NocLoadWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    cfg_ = make_config(seed_, kThreads);
    cfg_.validate();
    grid_ = cfg_.scenarios();
  }

  PassResult run_pass() override { return record_sweep(run_noc_sweep(cfg_)); }

  PassResult run_serial_pass() override {
    SweepConfig serial = cfg_;
    serial.threads = 1;
    return record_sweep(run_noc_sweep(serial));
  }

  int threads() const override { return kThreads; }

  void setup_traced(Tracer&) override { setup(); }

  PassResult run_pass_traced(Tracer& tracer) override {
    PassResult out;
    double accepted = 0.0;
    double latency = 0.0;
    double retried = 0.0;
    double unreachable = 0.0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const SweepScenario& sc = grid_[i];
      SweepPoint p;
      {
        Scope span(tracer, sc.fault_count > 0 ? "noc.scenario_degraded"
                                              : "noc.scenario_pristine");
        p = run_noc_scenario(sc, cfg_, static_cast<int>(i));
        span.cycles(p.cycles, sc.dim.node_count());
      }
      record_point(out, p);
      accepted += p.accepted_flit_rate;
      latency += p.avg_latency_cycles;
      retried += static_cast<double>(p.packets_retried);
      unreachable += static_cast<double>(p.packets_unreachable);
    }
    const double n = static_cast<double>(grid_.size());
    out.counts["noc.accepted_flit_rate"] = accepted / n;
    out.counts["noc.avg_latency_cycles"] = latency / n;
    out.counts["noc.retried"] = retried;
    out.counts["noc.unreachable"] = unreachable;
    return out;
  }

 private:
  std::uint64_t seed_;
  SweepConfig cfg_;
  std::vector<SweepScenario> grid_;
};

}  // namespace

std::unique_ptr<Workload> make_noc_load_workload(std::uint64_t seed) {
  return std::make_unique<NocLoadWorkload>(seed);
}

}  // namespace perfbench
