// Workload `stream`: all five full-scale configurations A-E, each streaming
// LDPC blocks through ReconfigurableLdpcSystem::run_stream with an X-Y
// Shift migration after every block (one block is about the paper's
// 109 us period), from the identity placement, single-threaded.
//
// Why: cycle-accurate NoC decode is ~99% of this workload and the fabric
// is idle on 13-48% of decode cycles, so this is where idle-skip and
// active-set stepping of the decoder show; thermal code does no work here.
//
// A pass runs orbit_length + 1 blocks per configuration, i.e. exactly one
// full migration orbit, so every pass starts from the identity placement
// and must reproduce the previous pass's cycle counts exactly.
#include <cmath>
#include <memory>
#include <vector>

#include "core/chip_config.hpp"
#include "core/migration_controller.hpp"
#include "core/reconfigurable_system.hpp"
#include "core/transform.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace renoc;

constexpr MigrationScheme kScheme = MigrationScheme::kShiftXY;
constexpr double kPaperPenalty = 0.016;  // bench/period_sweep.cpp header

int blocks_per_pass(const ChipConfig& cfg) {
  return orbit_length(transform_of(kScheme), cfg.dim) + 1;
}

/// One configuration's system, built from the public calls the
/// ReconfigurableLdpcSystem constructor makes.
struct ComposedSystem {
  std::unique_ptr<BuiltChip> built;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<NocLdpcDecoder> decoder;
  std::unique_ptr<MigrationController> controller;
  std::unique_ptr<MinSumDecoder> golden;
  std::vector<int> placement;
  std::vector<int> state_words;
};

void record(PassResult& out, Cycle total_cycles, Cycle migration_cycles,
            Cycle last_block_cycles, int migrations, double penalty) {
  out.sim_cycles += total_cycles;
  out.ints.insert(out.ints.end(),
                  {total_cycles, migration_cycles, last_block_cycles,
                   static_cast<std::uint64_t>(migrations)});
  out.reals.push_back(penalty);
}

/// Mean over configurations of |streamed penalty - paper|, in points.
void record_penalty_error(PassResult& out) {
  double sum = 0.0;
  for (double penalty : out.reals) sum += std::abs(penalty - kPaperPenalty);
  out.accuracy["penalty_err_pct"] =
      100.0 * sum / static_cast<double>(out.reals.size());
}

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(std::uint64_t seed) : configs_(all_configs()) {
    for (ChipConfig& cfg : configs_)
      cfg.channel_seed = derive_stream_seed(seed, cfg.channel_seed);
  }

  void setup() override {
    systems_.clear();
    for (const ChipConfig& cfg : configs_)
      systems_.push_back(
          std::make_unique<ReconfigurableLdpcSystem>(cfg, kScheme));
  }

  PassResult run_pass() override {
    PassResult out;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const StreamResult s =
          systems_[i]->run_stream(blocks_per_pass(configs_[i]), 1);
      out.attempted += s.blocks;
      // run_stream reports one verdict for the whole stream, so a mismatch
      // fails every block it covered.
      if (!s.all_blocks_match_golden) out.failed += s.blocks;
      record(out, s.total_cycles, s.migration_cycles,
             systems_[i]->block_cycles(), s.migrations,
             s.throughput_penalty);
    }
    record_penalty_error(out);
    return out;
  }

  void setup_traced(Tracer& tracer) override {
    composed_.clear();
    for (const ChipConfig& cfg : configs_) {
      ComposedSystem sys;
      {
        Scope span(tracer, "ldpc.build_chip");
        sys.built = std::make_unique<BuiltChip>(build_chip(cfg));
      }
      sys.fabric = std::make_unique<Fabric>(cfg.noc);
      sys.placement = identity_permutation(cfg.dim.node_count());
      sys.placement.resize(
          static_cast<std::size_t>(sys.built->partition.cluster_count));
      sys.decoder = std::make_unique<NocLdpcDecoder>(
          *sys.fabric, sys.built->code, sys.built->partition, sys.placement,
          cfg.ldpc_params);
      sys.controller = std::make_unique<MigrationController>(
          *sys.fabric, transform_of(kScheme));
      sys.golden = std::make_unique<MinSumDecoder>(
          sys.built->code, cfg.ldpc_params.iterations);
      for (int c = 0; c < sys.decoder->cluster_count(); ++c)
        sys.state_words.push_back(sys.decoder->migration_state_words(c));
      composed_.push_back(std::move(sys));
    }
  }

  PassResult run_pass_traced(Tracer& tracer) override {
    PassResult out;
    Cycle decode_cycles = 0;
    int decoded = 0;
    std::uint64_t link_flits = 0;
    std::uint64_t state_flits = 0;
    Cycle migration_total = 0;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      ComposedSystem& sys = composed_[i];
      const int routers = sys.fabric->node_count();
      DecodeResult golden;
      {
        Scope span(tracer, "ldpc.golden_decode");
        golden = sys.golden->decode(sys.built->channel_llrs);
      }
      const int blocks = blocks_per_pass(configs_[i]);
      const Cycle start = sys.fabric->now();
      Cycle migration_cycles = 0;
      Cycle block_cycles = 0;
      int migrations = 0;
      for (int b = 0; b < blocks; ++b) {
        const std::uint64_t flits0 = sys.fabric->stats().total().link_flits;
        NocDecodeResult res;
        {
          Scope span(tracer, "noc.decode_block");
          res = sys.decoder->decode_block(sys.built->channel_llrs);
          span.cycles(res.cycles, routers);
        }
        link_flits += sys.fabric->stats().total().link_flits - flits0;
        block_cycles = res.cycles;
        decode_cycles += res.cycles;
        ++decoded;
        ++out.attempted;
        if (res.hard_bits != golden.hard_bits) ++out.failed;
        if (b + 1 < blocks) {
          MigrationReport rep;
          {
            Scope span(tracer, "core.migrate");
            rep = sys.controller->migrate(sys.placement, sys.state_words);
            span.cycles(rep.total_cycles, routers);
          }
          sys.decoder->set_placement(sys.placement);
          migration_cycles += rep.total_cycles;
          state_flits += rep.state_flits;
          ++migrations;
        }
      }
      const Cycle total = sys.fabric->now() - start;
      migration_total += migration_cycles;
      record(out, total, migration_cycles, block_cycles, migrations,
             total ? static_cast<double>(migration_cycles) /
                         static_cast<double>(total)
                   : 0.0);
    }
    record_penalty_error(out);
    out.counts["noc.block_cycles"] =
        static_cast<double>(decode_cycles) / decoded;
    out.counts["noc.link_flits_per_cycle"] =
        static_cast<double>(link_flits) / static_cast<double>(decode_cycles);
    out.counts["core.migration_cycles"] =
        static_cast<double>(migration_total);
    out.counts["core.state_flits"] = static_cast<double>(state_flits);
    return out;
  }

 private:
  std::vector<ChipConfig> configs_;
  std::vector<std::unique_ptr<ReconfigurableLdpcSystem>> systems_;
  std::vector<ComposedSystem> composed_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_workload(std::uint64_t seed) {
  return std::make_unique<StreamWorkload>(seed);
}

}  // namespace perfbench
