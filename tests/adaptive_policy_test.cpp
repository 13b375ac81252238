// Tests for adaptive migration-function selection (the paper's runtime
// function-switching extension).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/adaptive_policy.hpp"
#include "floorplan/floorplan.hpp"
#include "power/power_map.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

constexpr double kPeriod = 109.3e-6;

struct Env {
  Floorplan fp;
  RcNetwork net;
  GridDim dim;

  explicit Env(int side)
      : fp(make_grid_floorplan(GridDim{side, side}, date05_tile_area())),
        net(build_rc_network(fp, date05_hotspot_params())),
        dim{side, side} {}

  /// Steady-state rise vector for a die power map.
  std::vector<double> steady_state(const std::vector<double>& power) const {
    SteadyStateSolver solver(net);
    return solver.solve_die_power(power);
  }
};

TEST(AdaptivePolicyTest, CandidateSetIncludesIdentityAndSchemes) {
  Env env(4);
  const AdaptivePolicy policy(env.net, env.dim,
                              AdaptiveObjective::kPredictivePeak, kPeriod);
  // identity + the five Figure-1 transforms.
  EXPECT_EQ(policy.candidates().size(), 6u);
}

TEST(AdaptivePolicyTest, RotationDroppedOnNonSquare) {
  const Floorplan fp = make_grid_floorplan(GridDim{4, 2}, 4e-6);
  const RcNetwork net = build_rc_network(fp, date05_hotspot_params());
  const AdaptivePolicy policy(net, GridDim{4, 2},
                              AdaptiveObjective::kPredictivePeak, kPeriod);
  for (const Transform& t : policy.candidates())
    EXPECT_NE(t.kind, TransformKind::kRotation);
}

TEST(AdaptivePolicyTest, UniformPowerPrefersNoMove) {
  // With a perfectly uniform map every transform predicts the same peak;
  // identity is listed first and wins ties — no pointless migrations.
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kPredictivePeak, kPeriod);
  const std::vector<double> uniform(16, 3.0);
  const Transform t = policy.choose(uniform, env.steady_state(uniform));
  EXPECT_EQ(t.kind, TransformKind::kIdentity);
}

TEST(AdaptivePolicyTest, PredictiveMovesEdgeHotspot) {
  // One hot edge tile at its steady state: staying keeps it hot, so the
  // policy must choose a transform that relocates it.
  Env env(5);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kPredictivePeak, kPeriod);
  std::vector<double> power(25, 1.0);
  const int hot = coord_to_index({1, 2}, env.dim);
  power[static_cast<std::size_t>(hot)] = 8.0;
  const std::vector<double> state = env.steady_state(power);

  const Transform t = policy.choose(power, state);
  EXPECT_NE(t.kind, TransformKind::kIdentity);
  const auto perm = t.permutation(env.dim);
  EXPECT_NE(perm[static_cast<std::size_t>(hot)], hot)
      << "chosen transform must move the hotspot";
  // And its predicted peak beats staying put (identity is candidate 0).
  const std::vector<double> scores = policy.candidate_scores(power, state);
  ASSERT_EQ(policy.candidates()[0].kind, TransformKind::kIdentity);
  EXPECT_LT(*std::min_element(scores.begin(), scores.end()), scores[0]);
}

TEST(AdaptivePolicyTest, PredictiveAvoidsRotationForCenterHotspot) {
  // A central hotspot on an odd mesh: rotation/mirror leave it in place,
  // so the predictive policy must pick a translation.
  Env env(5);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kPredictivePeak, kPeriod);
  std::vector<double> power(25, 1.0);
  power[12] = 8.0;  // center
  const Transform t = policy.choose(power, env.steady_state(power));
  EXPECT_TRUE(t.kind == TransformKind::kShiftX ||
              t.kind == TransformKind::kShiftXY)
      << "got " << to_string(t.kind);
}

TEST(AdaptivePolicyTest, OrbitAverageNeverPicksIdentityOnImbalance) {
  // Identity's orbit-average is the static map — the worst possible score
  // whenever any transform can average the imbalance away.
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kOrbitAverage, kPeriod);
  std::vector<double> power(16, 1.0);
  power[coord_to_index({0, 0}, env.dim)] = 6.0;
  const Transform t = policy.choose(power, env.steady_state(power));
  EXPECT_NE(t.kind, TransformKind::kIdentity);
}

TEST(AdaptivePolicyTest, OrbitAverageAvoidsFixedPointSchemesOnCenterHotspot) {
  // Center hotspot on 5x5: rotation/mirror orbits leave the center's
  // power untouched, so the orbit-average objective must pick a
  // translation (the paper's odd-mesh result, discovered at runtime).
  Env env(5);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kOrbitAverage, kPeriod);
  std::vector<double> power(25, 1.0);
  power[12] = 8.0;
  const Transform t = policy.choose(power, env.steady_state(power));
  EXPECT_TRUE(t.kind == TransformKind::kShiftX ||
              t.kind == TransformKind::kShiftXY)
      << "got " << to_string(t.kind);
}

TEST(AdaptivePolicyTest, OrbitAverageIsStableAcrossOrbitSteps) {
  // Once a transform is chosen, re-evaluating from any placement along
  // its orbit must keep choosing the same transform (the policy behaves
  // like the fixed scheme it selected).
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kOrbitAverage, kPeriod);
  std::vector<double> base(16, 1.0);
  for (int x = 0; x < 4; ++x)
    base[static_cast<std::size_t>(coord_to_index({x, 0}, env.dim))] = 4.0;
  const auto state = env.steady_state(base);
  const Transform first = policy.choose(base, state);
  ASSERT_NE(first.kind, TransformKind::kIdentity);
  std::vector<int> acc = identity_permutation(16);
  for (int step = 0; step < 4; ++step) {
    acc = compose_permutations(acc, first.permutation(env.dim));
    const auto power = apply_permutation(base, acc);
    const Transform again = policy.choose(power, env.steady_state(power));
    EXPECT_EQ(again.kind, first.kind) << "at orbit step " << step;
  }
}

TEST(AdaptivePolicyTest, SensorObjectiveSendsPowerToColdTiles) {
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kCoolestHistory, kPeriod);
  // Hot top row in both power and temperature; the policy should flip or
  // rotate the workload toward the cold bottom.
  std::vector<double> power(16, 1.0);
  for (int x = 0; x < 4; ++x)
    power[static_cast<std::size_t>(coord_to_index({x, 3}, env.dim))] = 5.0;
  const std::vector<double> state = env.steady_state(power);

  const Transform t = policy.choose(power, state);
  const auto moved = apply_permutation(power, t.permutation(env.dim));
  double before = 0.0, after = 0.0;
  for (int i = 0; i < 16; ++i) {
    before += power[static_cast<std::size_t>(i)] *
              state[static_cast<std::size_t>(i)];
    after += moved[static_cast<std::size_t>(i)] *
             state[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(after, before);
}

TEST(AdaptivePolicyTest, PredictiveScoresBitMatchSteppedLookahead) {
  // Each kPredictivePeak score is the end-of-period peak of a lone
  // TransientSolver started at `state` and stepped 10 times over one
  // period under the candidate's moved power, bit for bit, at both paper
  // chip sizes: side 4 (58 nodes) and side 5 (85 nodes). The policy has
  // scored another state first, so no lookahead state may carry over.
  for (const int side : {4, 5}) {
    Env env(side);
    AdaptivePolicy policy(env.net, env.dim,
                          AdaptiveObjective::kPredictivePeak, kPeriod);
    std::vector<double> power(
        static_cast<std::size_t>(side * side), 1.0);
    (void)policy.candidate_scores(power, env.steady_state(power));
    power[static_cast<std::size_t>(side + 1)] = 8.0;
    const std::vector<double> state = env.steady_state(power);

    const std::vector<double> scores = policy.candidate_scores(power, state);
    ASSERT_EQ(scores.size(), policy.candidates().size());
    for (std::size_t j = 0; j < scores.size(); ++j) {
      TransientSolver lookahead(env.net, kPeriod / 10);
      lookahead.set_state(state);
      const std::vector<double> moved = apply_permutation(
          power, policy.candidates()[j].permutation(env.dim));
      for (int s = 0; s < 10; ++s) lookahead.step_die_power(moved);
      EXPECT_EQ(scores[j],
                env.net.ambient() + env.net.peak_die_rise(lookahead.state()))
          << "side " << side << " candidate " << j;
    }

    // choose() is the argmin of the same scores.
    const Transform chosen = policy.choose(power, state);
    std::size_t best = 0;
    for (std::size_t j = 1; j < scores.size(); ++j)
      if (scores[j] < scores[best]) best = j;
    EXPECT_EQ(chosen.kind, policy.candidates()[best].kind) << "side " << side;
  }
}

TEST(AdaptivePolicyTest, CandidateScoresCoverAllObjectives) {
  Env env(4);
  std::vector<double> power(16, 1.0);
  power[3] = 5.0;
  const std::vector<double> state = env.steady_state(power);
  for (const AdaptiveObjective objective :
       {AdaptiveObjective::kPredictivePeak,
        AdaptiveObjective::kCoolestHistory,
        AdaptiveObjective::kOrbitAverage}) {
    AdaptivePolicy policy(env.net, env.dim, objective, kPeriod);
    const std::vector<double> scores = policy.candidate_scores(power, state);
    const int which = static_cast<int>(objective);
    ASSERT_EQ(scores.size(), policy.candidates().size())
        << "objective " << which;
    // Scores are finite and choose() picks their first minimum.
    const Transform chosen = policy.choose(power, state);
    std::size_t best = 0;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      EXPECT_TRUE(std::isfinite(scores[j])) << "objective " << which;
      if (scores[j] < scores[best]) best = j;
    }
    EXPECT_EQ(chosen.kind, policy.candidates()[best].kind)
        << "objective " << which;
  }
}

TEST(AdaptivePolicyTest, InputValidation) {
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim,
                        AdaptiveObjective::kPredictivePeak, kPeriod);
  const std::vector<double> power(16, 1.0);
  EXPECT_THROW(policy.choose(std::vector<double>(9, 1.0),
                             env.steady_state(power)),
               CheckError);
  EXPECT_THROW(policy.choose(power, std::vector<double>(5, 0.0)),
               CheckError);
  EXPECT_THROW(AdaptivePolicy(env.net, env.dim,
                              AdaptiveObjective::kPredictivePeak, -1.0),
               CheckError);
}

TEST(AdaptiveSimulationTest, DeterministicAndMigratesOnImbalance) {
  // The library closed-loop run (run_adaptive_simulation, extracted from
  // the adaptive bench): bit-identical across repeated runs, and a hot
  // corner under the orbit-average objective must trigger migrations that
  // beat the static steady peak.
  Env env(4);
  std::vector<double> power(16, 2.0);
  power[0] = 7.0;

  std::map<TransformKind, std::vector<double>> energy_maps;
  for (MigrationScheme s : figure1_schemes())
    energy_maps[transform_of(s).kind] = std::vector<double>(16, 1e-7);

  AdaptiveSimConfig cfg;
  cfg.period_s = kPeriod;
  cfg.periods = 40;

  AdaptivePolicy p1(env.net, env.dim, AdaptiveObjective::kOrbitAverage,
                    kPeriod);
  AdaptivePolicy p2(env.net, env.dim, AdaptiveObjective::kOrbitAverage,
                    kPeriod);
  const AdaptiveSimResult r1 =
      run_adaptive_simulation(env.net, env.dim, p1, power, energy_maps, cfg);
  const AdaptiveSimResult r2 =
      run_adaptive_simulation(env.net, env.dim, p2, power, energy_maps, cfg);

  EXPECT_EQ(r1.settled_peak_c, r2.settled_peak_c);
  EXPECT_EQ(r1.choices, r2.choices);
  EXPECT_EQ(r1.migrations, r2.migrations);
  EXPECT_GT(r1.migrations, 0);

  SteadyStateSolver steady(env.net);
  EXPECT_LT(r1.settled_peak_c, steady.peak_die_temperature(power));

  int counted = 0;
  for (const auto& [kind, count] : r1.choices) counted += count;
  EXPECT_EQ(counted, cfg.periods);
}

TEST(AdaptiveSimulationTest, InputValidation) {
  Env env(4);
  AdaptivePolicy policy(env.net, env.dim, AdaptiveObjective::kOrbitAverage,
                        kPeriod);
  const std::vector<double> power(16, 2.0);
  AdaptiveSimConfig bad;
  bad.period_s = 0.0;
  EXPECT_THROW(
      run_adaptive_simulation(env.net, env.dim, policy, power, {}, bad),
      CheckError);
  bad.period_s = kPeriod;
  bad.periods = 2;
  EXPECT_THROW(
      run_adaptive_simulation(env.net, env.dim, policy, power, {}, bad),
      CheckError);
}

}  // namespace
}  // namespace renoc
