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

const char* to_string(AdaptiveObjective objective);

/// Chooses a migration function per period.
class AdaptivePolicy {
 public:
  /// `net` must outlive the policy. `period_s` is the migration period the
  /// predictive lookahead integrates over (`lookahead_steps` backward-Euler
  /// steps). Candidates default to identity plus the paper's five schemes;
  /// rotation is dropped automatically on non-square meshes.
  AdaptivePolicy(const RcNetwork& net, const GridDim& dim,
                 AdaptiveObjective objective, double period_s,
                 int lookahead_steps = 10);
  ~AdaptivePolicy();

  /// Overrides the candidate set (must be non-empty).
  void set_candidates(std::vector<Transform> candidates);

  /// Picks the next transform. `current_power` is the physical per-tile
  /// power map of the running placement; `state_rise` the current
  /// temperature-rise state of the full RC network (as maintained by a
  /// TransientSolver). Returns the chosen transform (possibly identity).
  Transform choose(const std::vector<double>& current_power,
                   const std::vector<double>& state_rise);

  /// Per-candidate scores (lower is better), aligned with candidates().
  /// choose() returns the first minimum of this vector. Under
  /// kPredictivePeak the candidates' lookahead trajectories advance
  /// together as one multi-RHS batch — one factor traversal per lookahead
  /// step instead of candidates() independent integrations — and the
  /// blocked solves replicate the scalar arithmetic exactly, so every
  /// entry bit-matches predicted_peak() on that candidate.
  std::vector<double> candidate_scores(
      const std::vector<double>& current_power,
      const std::vector<double>& state_rise);

  /// Predicted end-of-period peak (C) if `t` were applied now (exposed
  /// for tests; the scalar path the batched scores must bit-match).
  double predicted_peak(const Transform& t,
                        const std::vector<double>& current_power,
                        const std::vector<double>& state_rise);

  const std::vector<Transform>& candidates() const { return candidates_; }

 private:
  double history_score(const std::vector<int>& perm,
                       const Transform& t,
                       const std::vector<double>& current_power,
                       const std::vector<double>& state_rise);
  double orbit_average_score(const Transform& t,
                             const std::vector<double>& current_power) const;
  void predictive_scores_batch(const std::vector<double>& current_power,
                               const std::vector<double>& state_rise,
                               std::vector<double>& scores);

  const RcNetwork* net_;
  std::unique_ptr<SteadyStateSolver> steady_;
  GridDim dim_;
  AdaptiveObjective objective_;
  int lookahead_steps_;
  std::unique_ptr<TransientSolver> lookahead_;
  std::vector<Transform> candidates_;
  std::vector<std::vector<int>> candidate_perms_;  // cached permutations
  // Batched-lookahead workspaces (row-major node x candidate blocks).
  std::vector<double> moved_;
  std::vector<double> power_block_;
  std::vector<double> state_block_;
};

/// Closed-loop adaptive run parameters. `period_s` must be positive;
/// `periods` is the run length; each period integrates in
/// `steps_per_period` backward-Euler steps.
struct AdaptiveSimConfig {
  double period_s = 0.0;
  int periods = 150;
  int steps_per_period = 50;
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
