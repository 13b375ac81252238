// Tests for the HotSpot-style RC network and its solvers.
//
// The key physics invariants: the conductance matrix is symmetric and
// couples to ambient; steady state matches hand-computable cases; total
// heat flow to ambient equals total injected power (energy balance); the
// transient relaxes to the steady state and is stable at large steps.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/chip_config.hpp"
#include "floorplan/floorplan.hpp"
#include "support/helpers.hpp"
#include "support/matrix.hpp"
#include "thermal/grid_refine.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

RcNetwork make_net(int side) {
  const Floorplan fp =
      make_grid_floorplan(GridDim{side, side}, date05_tile_area());
  return build_rc_network(fp, date05_hotspot_params());
}

TEST(HotSpotParamsTest, DefaultsValidate) {
  EXPECT_NO_THROW(date05_hotspot_params().validate());
  EXPECT_DOUBLE_EQ(date05_hotspot_params().ambient, 40.0);
}

TEST(HotSpotParamsTest, BadValuesRejected) {
  HotSpotParams p = date05_hotspot_params();
  p.k_die = -1;
  EXPECT_THROW(p.validate(), CheckError);
  p = date05_hotspot_params();
  p.s_sink = p.s_spreader / 2;  // sink smaller than spreader
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(RcNetworkTest, NodeCountLayout) {
  const RcNetwork net = make_net(4);
  // 16 die + 16 TIM + 16 spreader + 4 trapezoids + 5 sink + 1 convection.
  EXPECT_EQ(net.node_count(), 3 * 16 + 10);
  EXPECT_EQ(net.die_count(), 16);
}

TEST(RcNetworkTest, ConductanceSymmetric) {
  const RcNetwork net = make_net(5);
  EXPECT_TRUE(to_dense(net.conductance_sparse()).is_symmetric(1e-12));
}

TEST(RcNetworkTest, AllCapacitancesPositive) {
  const RcNetwork net = make_net(4);
  for (double c : net.capacitance()) EXPECT_GT(c, 0.0);
}

TEST(RcNetworkTest, RowSumsZeroExceptAmbientCoupling) {
  // Each row of G sums to the node's conductance to ambient: zero for all
  // nodes except the convection node (which carries 1/r_convec).
  const RcNetwork net = make_net(4);
  const HotSpotParams p = date05_hotspot_params();
  const Matrix g = to_dense(net.conductance_sparse());
  const int n = net.node_count();
  for (int r = 0; r < n; ++r) {
    double sum = 0.0;
    for (int c = 0; c < n; ++c)
      sum += g(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    if (r == n - 1) {
      EXPECT_NEAR(sum, 1.0 / p.r_convec, 1e-9);
    } else {
      EXPECT_NEAR(sum, 0.0, 1e-9);
    }
  }
}

TEST(RcNetworkTest, DieTooBigForSpreaderRejected) {
  HotSpotParams p = date05_hotspot_params();
  p.s_spreader = 5e-3;  // 5 mm spreader cannot hold an ~8.4 mm die
  p.s_sink = 10e-3;
  const Floorplan fp = make_grid_floorplan(GridDim{4, 4}, date05_tile_area());
  EXPECT_THROW(build_rc_network(fp, p), CheckError);
}

TEST(SteadyStateTest, ZeroPowerIsAmbient) {
  const RcNetwork net = make_net(4);
  SteadyStateSolver solver(net);
  const std::vector<double> rise =
      solver.solve_die_power(std::vector<double>(16, 0.0));
  for (double r : rise) EXPECT_NEAR(r, 0.0, 1e-12);
  EXPECT_NEAR(solver.peak_die_temperature(std::vector<double>(16, 0.0)),
              40.0, 1e-9);
}

TEST(SteadyStateTest, EnergyBalance) {
  // In steady state, all injected power must exit through r_convec:
  // T_convec = P_total * r_convec.
  const RcNetwork net = make_net(4);
  SteadyStateSolver solver(net);
  std::vector<double> power(16, 0.0);
  power[3] = 7.0;
  power[9] = 2.5;
  const std::vector<double> rise = solver.solve_die_power(power);
  const double t_convec = rise[static_cast<std::size_t>(net.node_count() - 1)];
  EXPECT_NEAR(t_convec, 9.5 * date05_hotspot_params().r_convec, 1e-9);
}

TEST(SteadyStateTest, SuperpositionHolds) {
  // The network is linear: solve(a) + solve(b) == solve(a+b).
  const RcNetwork net = make_net(4);
  SteadyStateSolver solver(net);
  std::vector<double> a(16, 0.0), b(16, 0.0), ab(16, 0.0);
  a[0] = 3.0;
  b[15] = 4.0;
  for (int i = 0; i < 16; ++i)
    ab[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] +
                                      b[static_cast<std::size_t>(i)];
  const auto ra = solver.solve_die_power(a);
  const auto rb = solver.solve_die_power(b);
  const auto rab = solver.solve_die_power(ab);
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_NEAR(ra[i] + rb[i], rab[i], 1e-9);
}

TEST(SteadyStateTest, HeatedBlockIsHottest) {
  const RcNetwork net = make_net(5);
  SteadyStateSolver solver(net);
  std::vector<double> power(25, 0.5);
  power[12] = 6.0;  // center tile
  const std::vector<double> rise = solver.solve_die_power(power);
  int hottest = 0;
  for (int i = 1; i < 25; ++i)
    if (rise[static_cast<std::size_t>(i)] >
        rise[static_cast<std::size_t>(hottest)])
      hottest = i;
  EXPECT_EQ(hottest, 12);
  // And its neighbours are warmer than the far corner.
  EXPECT_GT(rise[7], rise[0]);
  EXPECT_GT(rise[11], rise[4]);
}

TEST(SteadyStateTest, UniformPowerSymmetricProfile) {
  const RcNetwork net = make_net(4);
  SteadyStateSolver solver(net);
  const std::vector<double> rise =
      solver.solve_die_power(std::vector<double>(16, 2.0));
  // Four-fold symmetry: corners equal, edges equal.
  EXPECT_NEAR(rise[0], rise[3], 1e-9);
  EXPECT_NEAR(rise[0], rise[12], 1e-9);
  EXPECT_NEAR(rise[0], rise[15], 1e-9);
  EXPECT_NEAR(rise[5], rise[10], 1e-9);
  // Center hotter than corner under uniform power.
  EXPECT_GT(rise[5], rise[0]);
}

TEST(SteadyStateTest, SingleBlockAnalyticResistanceChain) {
  // One die block: vertical chain die->TIM->spreader->sink->convection,
  // where the analytic total resistance bounds the observed rise.
  std::vector<Block> blocks{{"only", 0, 0, 2e-3, 2e-3}};
  const Floorplan fp{std::move(blocks)};
  const HotSpotParams p = date05_hotspot_params();
  const RcNetwork net = build_rc_network(fp, p);
  SteadyStateSolver solver(net);
  const std::vector<double> rise = solver.solve_die_power({10.0});
  // Rise must be at least the convection-resistance contribution and no
  // more than the full series stack through the block's own area.
  const double lower = 10.0 * p.r_convec;
  const double area = 4e-6;
  const double upper =
      10.0 * (p.r_convec + p.t_die / (p.k_die * area) +
              p.t_interface / (p.k_interface * area) +
              p.t_spreader / (p.k_spreader * area) +
              p.t_sink / (p.k_sink * area));
  EXPECT_GT(rise[0], lower);
  EXPECT_LT(rise[0], upper);
}

TEST(TransientTest, RelaxesToSteadyState) {
  const RcNetwork net = make_net(4);
  SteadyStateSolver steady(net);
  std::vector<double> power(16, 1.0);
  power[5] = 8.0;
  const std::vector<double> target = steady.solve_die_power(power);

  TransientSolver transient(net, 1e-3);
  // Start cold; run 200 s of simulated time (sink time constant ~14 s).
  for (int i = 0; i < 200000; ++i) transient.step_die_power(power);
  for (int i = 0; i < net.node_count(); ++i)
    EXPECT_NEAR(transient.state()[static_cast<std::size_t>(i)],
                target[static_cast<std::size_t>(i)], 0.01)
        << "node " << i;
}

TEST(TransientTest, SteadyStateIsFixedPoint) {
  const RcNetwork net = make_net(4);
  std::vector<double> power(16, 2.0);
  power[0] = 9.0;
  TransientSolver transient(net, 5e-6);
  transient.set_state_to_steady(power);
  const std::vector<double> before = transient.state();
  for (int i = 0; i < 1000; ++i) transient.step_die_power(power);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(transient.state()[i], before[i], 1e-9);
}

TEST(TransientTest, StableAtLargeSteps) {
  // Backward Euler must not oscillate or blow up with dt far above the
  // smallest time constant.
  const RcNetwork net = make_net(4);
  std::vector<double> power(16, 0.0);
  power[7] = 20.0;
  TransientSolver transient(net, 1.0);  // 1 s steps
  double prev_peak = 0.0;
  for (int i = 0; i < 100; ++i) {
    transient.step_die_power(power);
    const double peak = net.peak_die_rise(transient.state());
    EXPECT_GE(peak, prev_peak - 1e-9);  // monotone approach from cold
    prev_peak = peak;
  }
  EXPECT_TRUE(std::isfinite(prev_peak));
}

TEST(TransientTest, DieRespondsOnMillisecondScale) {
  // Step power onto a cold die: after 5 ms the die node should have
  // covered most of its *local* (die-to-package) rise, while the package
  // nodes are still far from their final value. This pins the two-scale
  // behaviour that justifies the orbit-averaged migration analysis.
  const RcNetwork net = make_net(4);
  std::vector<double> power(16, 3.0);
  TransientSolver transient(net, 1e-5);
  for (int i = 0; i < 500; ++i) transient.step_die_power(power);  // 5 ms
  SteadyStateSolver steady(net);
  const std::vector<double> target = steady.solve_die_power(power);
  const double die_now = transient.state()[0];
  const double convec_target =
      target[static_cast<std::size_t>(net.node_count() - 1)];
  const double convec_now =
      transient.state()[static_cast<std::size_t>(net.node_count() - 1)];
  // Convection node barely moved (tau ~ 14 s).
  EXPECT_LT(convec_now, 0.01 * convec_target);
  // Die node already shows a substantial rise.
  EXPECT_GT(die_now, 1.0);
}

TEST(SolverIntoTest, SolveDiePowerIntoBitMatchesSolveDiePower) {
  // Both paper chip sizes: side 4 (58 nodes) and side 5 (85 nodes).
  for (const int side : {4, 5}) {
    const RcNetwork net = make_net(side);
    const SteadyStateSolver solver(net);
    std::vector<double> power(
        static_cast<std::size_t>(net.die_count()), 1.5);
    power[2] = 7.0;
    const std::vector<double> fresh = solver.solve_die_power(power);
    std::vector<double> reused;
    for (int rep = 0; rep < 3; ++rep) {
      solver.solve_die_power_into(power, reused);
      ASSERT_EQ(reused.size(), fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(reused[i], fresh[i]) << "side " << side << " rep " << rep;
    }
    // Full-node variant.
    const std::vector<double> full = expand_die_power(net, power);
    std::vector<double> rise2;
    solver.solve_into(full, rise2);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(rise2[i], fresh[i]);
  }
}

TEST(GridRefineTest, RefineOneMatchesBlockModel) {
  const GridDim dim{4, 4};
  const RefinedThermalModel model(dim, date05_tile_area(),
                                  date05_hotspot_params(), 1);
  const RcNetwork block = make_net(4);
  EXPECT_EQ(model.network().node_count(), block.node_count());
  std::vector<double> power(16, 2.0);
  power[5] = 7.0;
  SteadyStateSolver solver(block);
  EXPECT_NEAR(model.peak_tile_temperature(power),
              solver.peak_die_temperature(power), 1e-9);
}

TEST(GridRefineTest, SubblockBookkeeping) {
  const GridDim dim{4, 4};
  const RefinedThermalModel model(dim, date05_tile_area(),
                                  date05_hotspot_params(), 3);
  EXPECT_EQ(model.fine_dim().node_count(), 16 * 9);
  // Every fine block belongs to exactly one tile.
  std::vector<int> owner(16 * 9, -1);
  for (int tile = 0; tile < 16; ++tile) {
    const auto blocks = model.subblocks_of_tile(tile);
    EXPECT_EQ(blocks.size(), 9u);
    for (int b : blocks) {
      EXPECT_EQ(owner[static_cast<std::size_t>(b)], -1);
      owner[static_cast<std::size_t>(b)] = tile;
    }
  }
  for (int o : owner) EXPECT_GE(o, 0);
}

TEST(GridRefineTest, PowerConservedUnderRefinement) {
  const GridDim dim{4, 4};
  const RefinedThermalModel model(dim, date05_tile_area(),
                                  date05_hotspot_params(), 2);
  std::vector<double> power(16, 0.0);
  power[3] = 5.0;
  power[9] = 2.5;
  const auto fine = model.refine_power(power);
  double total = 0.0;
  for (double p : fine) total += p;
  EXPECT_NEAR(total, 7.5, 1e-12);
  // The hot tile's sub-blocks carry equal shares.
  for (int b : model.subblocks_of_tile(3))
    EXPECT_NEAR(fine[static_cast<std::size_t>(b)], 5.0 / 4, 1e-12);
}

TEST(GridRefineTest, PeaksAgreeAcrossResolutions) {
  const GridDim dim{4, 4};
  std::vector<double> power(16, 2.0);
  power[10] = 6.5;
  const RefinedThermalModel coarse(dim, date05_tile_area(),
                                   date05_hotspot_params(), 1);
  const RefinedThermalModel fine(dim, date05_tile_area(),
                                 date05_hotspot_params(), 2);
  const double pc = coarse.peak_tile_temperature(power);
  const double pf = fine.peak_tile_temperature(power);
  // Refinement lets heat spread laterally inside the tile before entering
  // the package, so the refined peak is slightly lower — but the models
  // must stay within a few degrees on a ~30 C rise.
  EXPECT_LE(pf, pc + 1e-9);
  EXPECT_NEAR(pc, pf, 3.5) << "block and grid models diverge";
}

TEST(GridRefineTest, BadRefineRejected) {
  EXPECT_THROW(RefinedThermalModel(GridDim{4, 4}, date05_tile_area(),
                                   date05_hotspot_params(), 0),
               CheckError);
  EXPECT_THROW(RefinedThermalModel(GridDim{4, 4}, date05_tile_area(),
                                   date05_hotspot_params(), 9),
               CheckError);
}

TEST(GridRefineTest, RefineZeroFailsTheRefineCheckItself) {
  // Regression: refine was used (divide by refine^2, build the fine grid)
  // in the member-init list before the range check in the constructor body
  // ran, so refine=0 died on downstream floorplan checks instead of the
  // refine validation. The thrown message must now name the refine factor.
  try {
    RefinedThermalModel model(GridDim{4, 4}, date05_tile_area(),
                              date05_hotspot_params(), 0);
    FAIL() << "refine=0 must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("refine factor 0"),
              std::string::npos)
        << "unexpected failure path: " << e.what();
  }
  try {
    RefinedThermalModel model(GridDim{4, 4}, date05_tile_area(),
                              date05_hotspot_params(), -3);
    FAIL() << "refine=-3 must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("refine factor -3"),
              std::string::npos)
        << "unexpected failure path: " << e.what();
  }
}

TEST(GridRefineTest, PeakTileTemperatureReusesCachedSolver) {
  const RefinedThermalModel model(GridDim{4, 4}, date05_tile_area(),
                                  date05_hotspot_params(), 2);
  const SteadyStateSolver* first = &model.steady_solver();
  std::vector<double> power(16, 2.0);
  power[5] = 7.0;
  const double t1 = model.peak_tile_temperature(power);
  const double t2 = model.peak_tile_temperature(power);
  EXPECT_DOUBLE_EQ(t1, t2);
  // Repeated queries must hit the same factorization, not rebuild it.
  EXPECT_EQ(first, &model.steady_solver());
}

// --- Dense-vs-sparse agreement suite -----------------------------------
//
// The library solves every network with the sparse LDL^T; the dense LU of
// tests/support is the independent oracle. The two must agree to 1e-8 on
// steady rises and across a transient run.

constexpr double kOracleTol = 1e-8;

/// Steady rises for `die_power` through the dense LU oracle.
std::vector<double> oracle_steady(const RcNetwork& net,
                                  const std::vector<double>& die_power) {
  const LuFactorization lu(to_dense(net.conductance_sparse()));
  return lu.solve(expand_die_power(net, die_power));
}

/// The state after `steps` backward-Euler steps of size `dt` from ambient
/// under constant `die_power`, through the dense LU oracle.
std::vector<double> oracle_transient(const RcNetwork& net, double dt,
                                     const std::vector<double>& die_power,
                                     int steps) {
  Matrix step_matrix = to_dense(net.conductance_sparse());
  std::vector<double> c_over_dt(net.capacitance().size());
  for (std::size_t i = 0; i < c_over_dt.size(); ++i) {
    c_over_dt[i] = net.capacitance()[i] / dt;
    step_matrix(i, i) += c_over_dt[i];
  }
  const LuFactorization lu(step_matrix);
  const std::vector<double> power = expand_die_power(net, die_power);
  std::vector<double> state(power.size(), 0.0);
  for (int s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < state.size(); ++i)
      state[i] = c_over_dt[i] * state[i] + power[i];
    lu.solve_in_place(state);
  }
  return state;
}

/// SteadyStateSolver and a 200-step TransientSolver on `net` must match
/// the dense LU oracle to kOracleTol on every node.
void expect_solvers_match_oracle(const RcNetwork& net,
                                 const std::vector<double>& die_power,
                                 const std::string& label) {
  const std::vector<double> steady =
      SteadyStateSolver(net).solve_die_power(die_power);
  const std::vector<double> steady_oracle = oracle_steady(net, die_power);
  ASSERT_EQ(steady.size(), steady_oracle.size());
  for (std::size_t i = 0; i < steady.size(); ++i)
    EXPECT_NEAR(steady[i], steady_oracle[i], kOracleTol)
        << label << " steady node " << i;

  constexpr double kDt = 5e-6;
  constexpr int kSteps = 200;
  TransientSolver transient(net, kDt);
  for (int s = 0; s < kSteps; ++s) transient.step_die_power(die_power);
  const std::vector<double> transient_oracle =
      oracle_transient(net, kDt, die_power, kSteps);
  for (int i = 0; i < net.node_count(); ++i)
    EXPECT_NEAR(transient.state()[static_cast<std::size_t>(i)],
                transient_oracle[static_cast<std::size_t>(i)], kOracleTol)
        << label << " transient node " << i;
}

TEST(DenseSparseAgreementTest, SteadyStateMatchesOnRandomPowers) {
  const RcNetwork net = make_net(6);
  const SteadyStateSolver sparse(net);
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> power(36);
    for (auto& p : power) p = rng.next_double() * 8.0;
    const std::vector<double> rd = oracle_steady(net, power);
    const std::vector<double> rs = sparse.solve_die_power(power);
    ASSERT_EQ(rd.size(), rs.size());
    for (std::size_t i = 0; i < rd.size(); ++i)
      EXPECT_NEAR(rd[i], rs[i], kOracleTol)
          << "node " << i << " trial " << trial;
    EXPECT_NEAR(net.ambient() + net.peak_die_rise(rd),
                sparse.peak_die_temperature(power), kOracleTol);
  }
}

TEST(DenseSparseAgreementTest, TransientMatchesOverManySteps) {
  const RcNetwork net = make_net(6);
  Rng rng(7);
  std::vector<double> power(36);
  for (auto& p : power) p = rng.next_double() * 6.0;
  expect_solvers_match_oracle(net, power, "118-node grid");
}

TEST(DenseSparseAgreementTest, PaperConfigNetworksMatchOracle) {
  // The full-scale networks of configurations A-E (58 nodes for the 4x4
  // chips, 85 for the 5x5), as the experiments build them.
  Rng rng(2005);
  for (const ChipConfig& cfg : all_configs()) {
    const BuiltChip chip = build_chip(cfg);
    const RcNetwork net = build_rc_network(chip.floorplan, cfg.hotspot);
    EXPECT_EQ(net.node_count(), 3 * cfg.dim.node_count() + 10) << cfg.name;
    std::vector<double> power(static_cast<std::size_t>(net.die_count()));
    for (auto& p : power) p = 1.0 + rng.next_double() * 7.0;
    expect_solvers_match_oracle(net, power, "config " + cfg.name);
  }
}

TEST(SolverValidationTest, SizeMismatchesThrow) {
  const RcNetwork net = make_net(4);
  SteadyStateSolver steady(net);
  EXPECT_THROW(steady.solve_die_power(std::vector<double>(15, 1.0)),
               CheckError);
  TransientSolver transient(net, 1e-4);
  EXPECT_THROW(transient.step(std::vector<double>(3, 0.0)), CheckError);
  EXPECT_THROW(TransientSolver(net, 0.0), CheckError);
}

}  // namespace
}  // namespace renoc
