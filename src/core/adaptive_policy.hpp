// Adaptive migration-function selection (the paper's closing remark).
//
// Section 2.3: "the same migration unit can perform all migration
// functions presented with only minor changes to the mathematical
// operations, allowing dynamic alteration of the migration function at
// runtime." This module implements that extension: before each migration
// period a policy evaluates every candidate transform and commits the
// best one.
//
// A subtlety this module had to learn the hard way: comparing candidates
// by the *steady-state* peak of the post-move power map always chooses
// "don't move" — a thermally-aware baseline placement is already
// steady-state optimal, and migration only wins through time-averaging.
// The useful objectives are therefore dynamic:
//
//   * kPredictivePeak  — one-period model-predictive lookahead: integrate
//                        the thermal RC network through the next period
//                        for each candidate, starting from the *current*
//                        transient state, and pick the lowest predicted
//                        peak. The currently hot tile keeps heating under
//                        "stay", so moving wins exactly when it should.
//   * kCoolestHistory  — sensor heuristic needing no thermal model: pick
//                        the transform minimizing sum_i P_moved[i]*T[i]
//                        (hot tiles receive cool workloads), with a small
//                        hysteresis in favor of not moving.
//   * kOrbitAverage    — long-run analytic score: the steady-state peak
//                        of the orbit-averaged power map under repeated
//                        application of the candidate. For a stationary
//                        workload this converges onto the best fixed
//                        scheme of Figure 1 for that chip — automatic
//                        per-configuration scheme selection with no
//                        offline analysis. (Identity scores the static
//                        peak, so this objective always migrates.)
//
// renoc_paper's PAPER_adaptive.json compares both against the five fixed
// schemes of Figure 1.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/transform.hpp"
#include "floorplan/grid.hpp"
#include "thermal/solver.hpp"

namespace renoc {

enum class AdaptiveObjective {
  kPredictivePeak,
  kCoolestHistory,
  kOrbitAverage,
};

/// Chooses a migration function per period.
class AdaptivePolicy {
 public:
  /// `net` must outlive the policy. `period_s` is the migration period the
  /// predictive lookahead integrates over (10 backward-Euler steps). The
  /// candidates are identity plus the paper's five schemes; rotation is
  /// dropped on non-square meshes.
  AdaptivePolicy(const RcNetwork& net, const GridDim& dim,
                 AdaptiveObjective objective, double period_s);
  ~AdaptivePolicy();

  /// Picks the next transform. `current_power` is the physical per-tile
  /// power map of the running placement; `state_rise` the current
  /// temperature-rise state of the full RC network (as maintained by a
  /// TransientSolver). Returns the chosen transform (possibly identity).
  Transform choose(const std::vector<double>& current_power,
                   const std::vector<double>& state_rise);

  /// Per-candidate scores (lower is better), aligned with candidates().
  /// choose() returns the first minimum of this vector. Under
  /// kPredictivePeak each entry is the end-of-period peak (C) of that
  /// candidate's lookahead, stepped from `state_rise` through the policy's
  /// one TransientSolver.
  std::vector<double> candidate_scores(
      const std::vector<double>& current_power,
      const std::vector<double>& state_rise);

  const std::vector<Transform>& candidates() const { return candidates_; }

 private:
  double lookahead_score(const std::vector<int>& perm,
                         const std::vector<double>& current_power,
                         const std::vector<double>& state_rise);
  double history_score(const std::vector<int>& perm,
                       const Transform& t,
                       const std::vector<double>& current_power,
                       const std::vector<double>& state_rise);
  double orbit_average_score(const Transform& t,
                             const std::vector<double>& current_power) const;

  const RcNetwork* net_;
  std::unique_ptr<SteadyStateSolver> steady_;
  GridDim dim_;
  AdaptiveObjective objective_;
  std::unique_ptr<TransientSolver> lookahead_;
  std::vector<Transform> candidates_;
  std::vector<std::vector<int>> candidate_perms_;  // cached permutations
  std::vector<double> moved_;  // permuted-power workspace
};

/// Closed-loop adaptive run parameters. `period_s` must be positive;
/// `periods` is the run length; each period integrates in 50
/// backward-Euler steps.
struct AdaptiveSimConfig {
  double period_s = 0.0;
  int periods = 150;
};

struct AdaptiveSimResult {
  double settled_peak_c = 0.0;          ///< max peak over the last fifth
  std::map<TransformKind, int> choices;  ///< per-kind selection counts
  int migrations = 0;                   ///< non-identity choices
};

/// Simulates `cfg.periods` migration periods under `policy`: per period
/// the policy picks a transform from the current power map and thermal
/// state, the placement permutation accumulates, and the RC network
/// integrates through the period with the chosen transform's migration
/// energy (from `energy_maps`, keyed by kind — every non-identity
/// candidate of `policy` must have an entry) deposited in the first step.
/// The run starts from the static steady state of `base_power`, so the
/// settled peak is taken over the last fifth of the run (the hot-tile
/// excess needs several die time constants to decay).
AdaptiveSimResult run_adaptive_simulation(
    const RcNetwork& net, const GridDim& dim, AdaptivePolicy& policy,
    const std::vector<double>& base_power,
    const std::map<TransformKind, std::vector<double>>& energy_maps,
    const AdaptiveSimConfig& cfg);

}  // namespace renoc
