#include "core/adaptive_policy.hpp"

#include <algorithm>
#include <limits>

#include "power/power_map.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

/// Backward-Euler steps of the predictive lookahead over one period.
constexpr int kLookaheadSteps = 10;
/// Backward-Euler steps per period of run_adaptive_simulation.
constexpr int kStepsPerPeriod = 50;

}  // namespace

AdaptivePolicy::AdaptivePolicy(const RcNetwork& net, const GridDim& dim,
                               AdaptiveObjective objective, double period_s)
    : net_(&net), dim_(dim), objective_(objective) {
  RENOC_CHECK(net.die_count() == dim.node_count());
  RENOC_CHECK(period_s > 0);
  lookahead_ = std::make_unique<TransientSolver>(
      net, period_s / kLookaheadSteps);
  steady_ = std::make_unique<SteadyStateSolver>(net);
  std::vector<Transform> candidates{Transform{TransformKind::kIdentity, 0}};
  for (MigrationScheme s : figure1_schemes())
    candidates.push_back(transform_of(s));
  for (const Transform& t : candidates) {
    if (t.kind == TransformKind::kRotation && dim_.width != dim_.height)
      continue;  // rotation is not closed on non-square meshes
    candidates_.push_back(t);
    candidate_perms_.push_back(t.permutation(dim_));
  }
}

AdaptivePolicy::~AdaptivePolicy() = default;

double AdaptivePolicy::lookahead_score(
    const std::vector<int>& perm, const std::vector<double>& current_power,
    const std::vector<double>& state_rise) {
  apply_permutation_into(current_power, perm, moved_);
  lookahead_->set_state(state_rise);
  // Evaluate the *end-of-period* peak, not the maximum over the window:
  // the window maximum is dominated by the shared initial condition (the
  // die time constant dwarfs one period), which would make every
  // candidate look identical. The end state is where candidates diverge —
  // a moved hotspot has had a period to cool.
  for (int s = 0; s < kLookaheadSteps; ++s)
    lookahead_->step_die_power(moved_);
  return net_->ambient() + net_->peak_die_rise(lookahead_->state());
}

double AdaptivePolicy::history_score(
    const std::vector<int>& perm, const Transform& t,
    const std::vector<double>& current_power,
    const std::vector<double>& state_rise) {
  // Sensor heuristic: penalize placing high-power workloads onto tiles
  // that are currently hot. Score = sum_i P_moved[i] * T_i; lower is
  // better (hot tiles get cool workloads and vice versa). Identity gets a
  // small hysteresis bonus so negligible gains do not trigger pointless
  // migrations.
  apply_permutation_into(current_power, perm, moved_);
  double score = 0.0;
  for (int i = 0; i < net_->die_count(); ++i)
    score += moved_[static_cast<std::size_t>(i)] *
             (net_->ambient() + state_rise[static_cast<std::size_t>(i)]);
  if (t.kind == TransformKind::kIdentity) score *= 0.999;
  return score;
}

double AdaptivePolicy::orbit_average_score(
    const Transform& t, const std::vector<double>& current_power) const {
  const auto orbit = orbit_permutations(t, dim_);
  std::vector<std::vector<double>> maps;
  maps.reserve(orbit.size());
  for (const auto& perm : orbit)
    maps.push_back(apply_permutation(current_power, perm));
  return steady_->peak_die_temperature(average_maps(maps));
}

std::vector<double> AdaptivePolicy::candidate_scores(
    const std::vector<double>& current_power,
    const std::vector<double>& state_rise) {
  RENOC_CHECK(static_cast<int>(current_power.size()) == dim_.node_count());
  RENOC_CHECK(static_cast<int>(state_rise.size()) == net_->node_count());
  std::vector<double> scores;
  scores.reserve(candidates_.size());
  switch (objective_) {
    case AdaptiveObjective::kPredictivePeak:
      for (const std::vector<int>& perm : candidate_perms_)
        scores.push_back(lookahead_score(perm, current_power, state_rise));
      break;
    case AdaptiveObjective::kCoolestHistory:
      for (std::size_t j = 0; j < candidates_.size(); ++j)
        scores.push_back(history_score(candidate_perms_[j], candidates_[j],
                                       current_power, state_rise));
      break;
    case AdaptiveObjective::kOrbitAverage:
      for (const Transform& t : candidates_)
        scores.push_back(orbit_average_score(t, current_power));
      break;
  }
  return scores;
}

Transform AdaptivePolicy::choose(const std::vector<double>& current_power,
                                 const std::vector<double>& state_rise) {
  const std::vector<double> scores =
      candidate_scores(current_power, state_rise);
  const Transform* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < candidates_.size(); ++j) {
    if (scores[j] < best_score) {
      best_score = scores[j];
      best = &candidates_[j];
    }
  }
  RENOC_CHECK(best != nullptr);
  return *best;
}

AdaptiveSimResult run_adaptive_simulation(
    const RcNetwork& net, const GridDim& dim, AdaptivePolicy& policy,
    const std::vector<double>& base_power,
    const std::map<TransformKind, std::vector<double>>& energy_maps,
    const AdaptiveSimConfig& cfg) {
  RENOC_CHECK(cfg.period_s > 0);
  RENOC_CHECK(cfg.periods >= 5);
  RENOC_CHECK(net.die_count() == dim.node_count());

  TransientSolver transient(net, cfg.period_s / kStepsPerPeriod);
  transient.set_state_to_steady(base_power);

  std::vector<int> accumulated = identity_permutation(dim.node_count());
  AdaptiveSimResult result;
  double settled_peak = 0.0;

  for (int p = 0; p < cfg.periods; ++p) {
    // Physical power map of the current placement.
    const std::vector<double> power =
        apply_permutation(base_power, accumulated);

    const Transform chosen = policy.choose(power, transient.state());
    ++result.choices[chosen.kind];
    if (chosen.kind != TransformKind::kIdentity) ++result.migrations;
    accumulated = compose_permutations(accumulated, chosen.permutation(dim));
    const std::vector<double> new_power =
        apply_permutation(base_power, accumulated);

    // Integrate the period; deposit the migration energy in the first
    // step (identity choices cost nothing).
    double period_peak = 0.0;
    for (int s = 0; s < kStepsPerPeriod; ++s) {
      if (s == 0 && chosen.kind != TransformKind::kIdentity) {
        auto it = energy_maps.find(chosen.kind);
        RENOC_CHECK_MSG(it != energy_maps.end(),
                        "no migration-energy map for chosen transform");
        std::vector<double> spiked = new_power;
        for (std::size_t i = 0; i < spiked.size(); ++i)
          spiked[i] += it->second[i] / transient.dt();
        transient.step_die_power(spiked);
      } else {
        transient.step_die_power(new_power);
      }
      period_peak = std::max(
          period_peak, net.ambient() + net.peak_die_rise(transient.state()));
    }
    // The start state is the *static* steady state, whose hot-tile excess
    // needs several die time constants (~30-40 periods) to decay; settle
    // over the last fifth.
    if (p >= cfg.periods - cfg.periods / 5)
      settled_peak = std::max(settled_peak, period_peak);
  }
  result.settled_peak_c = settled_peak;
  return result;
}

}  // namespace renoc
