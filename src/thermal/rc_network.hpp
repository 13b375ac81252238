// Equivalent thermal RC network in the HotSpot block-model style.
//
// Node layout for a floorplan with N blocks:
//
//   [0 .. N-1]       die blocks (silicon), one node per floorplan block
//   [N .. 2N-1]      thermal-interface-material (TIM) blocks per die block
//   [2N .. 3N-1]     spreader under-die nodes, one per block, laterally
//                    connected copper — this per-block discretization is
//                    what makes lateral die position matter (central
//                    blocks are farther from the periphery escape paths,
//                    as in HotSpot's finer models)
//   [3N .. 3N+3]     spreader periphery trapezoids (N/S/E/W of the die)
//   [3N+4]           sink center (under the spreader footprint)
//   [3N+5 .. 3N+8]   sink periphery trapezoids
//   [3N+9]           convection node (sink-to-air interface; couples to
//                    ambient through r_convec and carries c_convec)
//
// Conductances:
//   * die block <-> adjacent die block: lateral conduction through silicon,
//     R = (half-extent_a + half-extent_b) / (k_die * t_die * shared_edge)
//   * die block <-> its TIM block: vertical, half die + half TIM thickness
//   * TIM block <-> its spreader node: vertical, half TIM + half spreader
//   * spreader node <-> adjacent spreader node: lateral copper
//   * die-boundary spreader nodes <-> the matching periphery trapezoid
//   * spreader nodes & trapezoids <-> sink center: vertical through the
//     remaining spreader half + half sink
//   * sink center <-> sink periphery: lateral in the sink base
//   * sink nodes <-> convection node: vertical through remaining half sink
//   * convection node <-> ambient: 1 / r_convec (appears only on the
//     diagonal of G)
//
// Temperatures are represented as rises over ambient, so the network ODE is
//   C * dT/dt = P - G * T,      steady state: G * T = P
// and absolute temperature = ambient + T. This is exactly the affine shift
// HotSpot applies; it keeps the solvers free of boundary special cases.
#pragma once

#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/hotspot_params.hpp"
#include "util/sparse.hpp"

namespace renoc {

/// Assembled thermal network: conductance matrix, heat capacities, and node
/// bookkeeping. Produced by build_rc_network(); immutable afterwards.
///
/// The conductance matrix is stored sparse (CSR); each node couples to at
/// most seven neighbours plus the package hubs, so the dense form would be
/// quadratically larger.
class RcNetwork {
 public:
  RcNetwork(SparseMatrix g, std::vector<double> cap, int die_count,
            double ambient);

  int node_count() const { return static_cast<int>(cap_.size()); }
  /// Number of die (floorplan block) nodes; these are nodes [0, die_count).
  int die_count() const { return die_count_; }

  const SparseMatrix& conductance_sparse() const { return g_; }
  const std::vector<double>& capacitance() const { return cap_; }
  double ambient() const { return ambient_; }

  /// Max entry over die nodes of a full temperature-rise vector.
  double peak_die_rise(const std::vector<double>& rise) const;

  /// Mean over die nodes of a full temperature-rise vector.
  double mean_die_rise(const std::vector<double>& rise) const;

 private:
  SparseMatrix g_;
  std::vector<double> cap_;
  int die_count_ = 0;
  double ambient_ = 0.0;
};

/// Builds the RC network for `fp` using package `params`.
/// The floorplan's bounding box must fit within the spreader.
RcNetwork build_rc_network(const Floorplan& fp, const HotSpotParams& params);

}  // namespace renoc
