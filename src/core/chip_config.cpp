#include "core/chip_config.hpp"

#include <algorithm>

#include "ldpc/channel.hpp"
#include "ldpc/encoder.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

ChipConfig base_config(const std::string& name, int side) {
  ChipConfig cfg;
  cfg.name = name;
  cfg.dim = GridDim{side, side};
  cfg.noc.dim = cfg.dim;
  cfg.noc.buffer_depth = 4;
  cfg.noc.clock_hz = 500e6;
  cfg.ldpc_params.iterations = 20;
  cfg.ldpc_params.vn_cycles_per_edge = 1;
  cfg.ldpc_params.cn_cycles_per_edge = 1;
  cfg.ldpc_params.phase_overhead_cycles = 8;
  cfg.hotspot = date05_hotspot_params();
  cfg.placer.iterations = 20000;
  cfg.placer.comm_weight = 1e-3;
  cfg.placer.seed = 0xC0FFEE;
  const int k = cfg.dim.node_count();
  cfg.workload.vn_weights.assign(static_cast<std::size_t>(k), 1.0);
  cfg.workload.cn_weights.assign(static_cast<std::size_t>(k), 0.06);
  return cfg;
}

/// Dedicates the mesh row `y` to check-node processing: clusters whose id
/// matches the row tiles become pure CFUs (no variable nodes), carry the
/// given check-share weights (left to right), and are pinned in place —
/// the CFU row position is wired into the chip, as in the ISVLSI'05
/// decoder.
void make_cfu_row(ChipConfig& cfg, int y, const std::vector<double>& weights) {
  RENOC_CHECK(static_cast<int>(weights.size()) == cfg.dim.width);
  for (int x = 0; x < cfg.dim.width; ++x) {
    const int id = coord_to_index({x, y}, cfg.dim);
    cfg.workload.vn_weights[static_cast<std::size_t>(id)] = 0.0;
    cfg.workload.cn_weights[static_cast<std::size_t>(id)] =
        weights[static_cast<std::size_t>(x)];
    cfg.workload.pins.push_back({id, id});
  }
}

/// A hybrid BFU+CFU tile: keeps its variable-node share, adds a check
/// share, and is pinned (hybrid units are part of the fixed pipeline).
void make_hybrid(ChipConfig& cfg, const GridCoord& at, double cn_weight) {
  const int id = coord_to_index(at, cfg.dim);
  cfg.workload.cn_weights[static_cast<std::size_t>(id)] = cn_weight;
  cfg.workload.pins.push_back({id, id});
}

}  // namespace

ChipConfig config_A() {
  ChipConfig cfg = base_config("A", 4);
  cfg.ldpc_params.iterations = 21;
  cfg.workload.code_n = 2046;
  // CFU row along the die edge y=0 (adjacent to the codeword I/O pads),
  // with in-row imbalance: the leftmost CFU also hosts the I/O serializer
  // and is the heaviest unit.
  make_cfu_row(cfg, 0, {1.80, 1.38, 1.24, 1.28});
  // Hybrid tiles along the main diagonal (a second, weaker warm structure
  // aligned with the XY-shift direction).
  make_hybrid(cfg, {1, 1}, 0.30);
  make_hybrid(cfg, {2, 2}, 0.30);
  make_hybrid(cfg, {3, 3}, 0.30);
  cfg.workload.code_seed = 11;
  cfg.channel_seed = 101;
  cfg.paper_base_peak_c = 85.44;
  return cfg;
}

ChipConfig config_B() {
  ChipConfig cfg = base_config("B", 4);
  cfg.ldpc_params.iterations = 24;
  cfg.workload.code_n = 2046;
  // CFU row along the opposite die edge, flatter in-row profile, weaker
  // hybrids.
  make_cfu_row(cfg, 3, {1.20, 1.02, 1.06, 0.96});
  make_hybrid(cfg, {0, 0}, 0.30);
  make_hybrid(cfg, {1, 1}, 0.30);
  make_hybrid(cfg, {2, 2}, 0.30);
  cfg.workload.code_seed = 22;
  cfg.channel_seed = 202;
  cfg.paper_base_peak_c = 84.05;
  return cfg;
}

ChipConfig config_C() {
  ChipConfig cfg = base_config("C", 5);
  cfg.ldpc_params.iterations = 31;
  cfg.workload.code_n = 2400;
  // Distributed check processing: BFU tiles carry a sizable check share,
  // so the CFU row is warm rather than dominant.
  cfg.workload.cn_weights.assign(25, 0.12);
  // The communication-optimal CFU row is the middle row, which passes
  // through the central PE — the fixed point of rotation/mirroring.
  make_cfu_row(cfg, 2, {0.45, 0.60, 0.30, 0.46, 0.42});
  cfg.workload.code_seed = 33;
  cfg.channel_seed = 303;
  cfg.paper_base_peak_c = 75.17;
  return cfg;
}

ChipConfig config_D() {
  ChipConfig cfg = base_config("D", 5);
  cfg.ldpc_params.iterations = 33;
  cfg.workload.code_n = 2400;
  cfg.workload.cn_weights.assign(25, 0.11);
  // Check work split across two adjacent rows (a deeper pipeline):
  // broader, flatter warm band -> the lowest base temperature of the five.
  make_cfu_row(cfg, 2, {0.44, 0.59, 0.35, 0.47, 0.42});
  for (int x = 0; x < 5; ++x) {
    const int id = coord_to_index({x, 1}, cfg.dim);
    cfg.workload.vn_weights[static_cast<std::size_t>(id)] = 0.5;
    cfg.workload.cn_weights[static_cast<std::size_t>(id)] = 0.22;
    cfg.workload.pins.push_back({id, id});
  }
  cfg.workload.code_seed = 44;
  cfg.channel_seed = 404;
  cfg.paper_base_peak_c = 72.80;
  return cfg;
}

ChipConfig config_E() {
  ChipConfig cfg = base_config("E", 5);
  cfg.ldpc_params.iterations = 32;
  cfg.workload.code_n = 2400;
  cfg.workload.cn_weights.assign(25, 0.11);
  // A heavily loaded central unit (check concentration plus its full
  // bit-node share): the near-center hotspot that rotation and mirroring
  // cannot move, and the configuration where rotation goes negative.
  make_cfu_row(cfg, 2, {0.51, 0.54, 0.58, 0.54, 0.51});
  cfg.workload.code_seed = 55;
  cfg.channel_seed = 505;
  cfg.paper_base_peak_c = 75.98;
  return cfg;
}

std::vector<ChipConfig> all_configs() {
  return {config_A(), config_B(), config_C(), config_D(), config_E()};
}

ChipConfig config_by_name(const std::string& name) {
  for (ChipConfig& cfg : all_configs()) {
    if (cfg.name == name) return cfg;
  }
  RENOC_FAIL("unknown configuration '" << name << "'");
}

ChipConfig smoke_scaled(ChipConfig cfg) {
  cfg.workload.code_n = cfg.dim.width == 4 ? 510 : 600;
  cfg.ldpc_params.iterations = 4;
  cfg.placer.iterations = 4000;
  return cfg;
}

std::vector<ChipConfig> paper_configs(bool smoke) {
  if (!smoke) return all_configs();
  return {smoke_scaled(config_A()), smoke_scaled(config_C())};
}

BuiltChip build_chip(const ChipConfig& cfg) {
  RENOC_CHECK(static_cast<int>(cfg.workload.vn_weights.size()) ==
              cfg.dim.node_count());
  RENOC_CHECK(cfg.workload.vn_weights.size() ==
              cfg.workload.cn_weights.size());
  BuiltChip built{cfg,
                  [&] {
                    Rng rng(cfg.workload.code_seed);
                    return LdpcCode::make_regular(cfg.workload.code_n,
                                                  cfg.workload.wc,
                                                  cfg.workload.wr, rng);
                  }(),
                  Partition{},
                  make_grid_floorplan(cfg.dim, date05_tile_area()),
                  {},
                  {},
                  {},
                  {}};
  built.partition = make_weighted_partition(built.code,
                                            cfg.workload.vn_weights,
                                            cfg.workload.cn_weights);
  built.cluster_ops = cluster_edge_ops(built.code, built.partition);
  built.traffic = cluster_traffic(built.code, built.partition);

  // Design-time compute-power model for the placer: ops per iteration *
  // per-op energy * iteration rate. The exact scale cancels in placement
  // (only relative power matters) but keeping real units aids debugging.
  const double iter_rate =
      cfg.noc.clock_hz /
      (2.0 * 2048.0);  // rough phases-per-second; placement-only proxy
  built.compute_power_estimate.resize(built.cluster_ops.size());
  for (std::size_t c = 0; c < built.cluster_ops.size(); ++c)
    built.compute_power_estimate[c] =
        static_cast<double>(built.cluster_ops[c]) * cfg.energy.e_pe_op *
        iter_rate;

  // One encoded block through the AWGN channel (the paper's "encoded
  // message").
  LdpcEncoder encoder(built.code);
  Rng data_rng(cfg.channel_seed);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(data_rng.next_below(2));
  const std::vector<std::uint8_t> codeword = encoder.encode(data);
  const double rate =
      static_cast<double>(encoder.k()) / static_cast<double>(encoder.n());
  AwgnChannel channel(cfg.ebn0_db, rate, data_rng.split());
  built.channel_llrs = quantize_llrs(channel.transmit(codeword));
  return built;
}

}  // namespace renoc
