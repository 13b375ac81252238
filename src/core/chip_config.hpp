// The five chip configurations of the DATE'05 evaluation.
//
// "the 4x4 chip is evaluated with two different configurations (referred
// to as A and B), while the 5x5 chip is evaluated with three different
// configurations (C, D, E). Differences in thermal profiles and power
// consumption between the configurations are due to the irregularity of
// the communication patterns and the amount of computation mapped to a
// single PE."
//
// The test chips implement the ISVLSI'05 NoC LDPC decoder, whose
// row-pipelined architecture dedicates a row of PEs to check-node
// processing (CFUs) while the remaining tiles hold bit/variable-node
// clusters (BFUs). We model the configurations accordingly:
//
//   * the CFU row is architecturally fixed (pinned in the placement) and
//     concentrates the check-side work -> "one of the rows had a
//     significantly higher power output than the remaining rows";
//   * per-cluster weights vary the computation mapped to each PE;
//   * hybrid BFU+CFU tiles (configurations A, B) and a heavy central
//     cluster (configuration E) realize the "irregular communication
//     patterns" that distinguish the five chips;
//   * the thermally-aware placer assigns the movable clusters.
//
// On the 5x5 chips the (communication-optimal) CFU row is the middle row
// and therefore passes through the central PE — the fixed point of
// rotation and mirroring — which is exactly why the paper finds
// translation more effective on the odd-dimension configurations.
//
// Each configuration's absolute power is calibrated at runtime so its
// baseline peak temperature equals the paper's reported value (A=85.44,
// B=84.05, C=75.17, D=72.80, E=75.98 C); renoc_paper's PAPER_fig1.json
// records each scale factor.
#pragma once

#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "ldpc/code.hpp"
#include "ldpc/noc_decoder.hpp"
#include "ldpc/partition.hpp"
#include "mapping/placer.hpp"
#include "noc/fabric.hpp"
#include "power/energy_model.hpp"
#include "thermal/hotspot_params.hpp"

namespace renoc {

/// The LDPC workload shape of one configuration.
struct WorkloadSpec {
  int code_n = 2046;
  int wc = 3;
  int wr = 6;
  /// Per-cluster shares of variable/check nodes (zero = none; a pure CFU
  /// tile has vn weight 0, a pure BFU tile has cn weight 0).
  std::vector<double> vn_weights;
  std::vector<double> cn_weights;
  /// Architecturally fixed assignments (the CFU row, hybrid tiles).
  std::vector<ThermalAwarePlacer::Pin> pins;
  std::uint64_t code_seed = 1;
};

struct ChipConfig {
  std::string name;
  GridDim dim{4, 4};
  NocConfig noc;
  WorkloadSpec workload;
  LdpcNocParams ldpc_params;
  EnergyParams energy;
  HotSpotParams hotspot;
  PlacerOptions placer;
  double paper_base_peak_c = 0.0;  ///< calibration target from the paper
  double ebn0_db = 2.5;
  std::uint64_t channel_seed = 99;
};

/// The five configurations (paper Section 2 / Figure 1).
ChipConfig config_A();
ChipConfig config_B();
ChipConfig config_C();
ChipConfig config_D();
ChipConfig config_E();
std::vector<ChipConfig> all_configs();
ChipConfig config_by_name(const std::string& name);

/// The smoke scaling of the paper records and the integration tests: a
/// shorter code, fewer decode iterations, and a lighter placer anneal.
/// Calibration still targets the paper's base peak, so temperatures stay
/// in the paper's regime; only the workload measurement shrinks.
ChipConfig smoke_scaled(ChipConfig cfg);

/// The paper records' configurations: all five at full scale; in smoke
/// mode one even-mesh (A, 4x4) and one odd-mesh (C, 5x5) chip through
/// smoke_scaled(). Odd meshes exercise the rotation/mirror fixed point.
std::vector<ChipConfig> paper_configs(bool smoke);

/// Everything derived from a ChipConfig that experiments need.
struct BuiltChip {
  ChipConfig config;
  LdpcCode code;
  Partition partition;
  Floorplan floorplan;
  std::vector<std::uint64_t> cluster_ops;  ///< edge ops per iteration
  std::vector<std::vector<std::uint64_t>> traffic;  ///< values per iteration
  std::vector<double> compute_power_estimate;  ///< W per cluster (model)
  std::vector<std::int16_t> channel_llrs;      ///< one encoded+noisy block
};

/// Constructs code, partition, floorplan, traffic/work summaries, and one
/// transmitted block for the configuration.
BuiltChip build_chip(const ChipConfig& cfg);

}  // namespace renoc
