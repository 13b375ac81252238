#include "thermal/solver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace renoc {
namespace {

/// Copies die power into the leading entries of a full-node scratch vector
/// whose package tail is already zero, so no call after the first
/// allocates.
const std::vector<double>& expand_into(const RcNetwork& net,
                                       const std::vector<double>& die_power,
                                       std::vector<double>& full) {
  RENOC_CHECK_MSG(static_cast<int>(die_power.size()) == net.die_count(),
                  "power vector size " << die_power.size()
                                      << " != die count " << net.die_count());
  full.resize(static_cast<std::size_t>(net.node_count()), 0.0);
  std::copy(die_power.begin(), die_power.end(), full.begin());
  return full;
}

}  // namespace

std::vector<double> step_capacitance_diagonal(const RcNetwork& net,
                                              double dt) {
  RENOC_CHECK_MSG(dt > 0.0, "transient dt must be positive");
  std::vector<double> d(static_cast<std::size_t>(net.node_count()));
  for (int i = 0; i < net.node_count(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    d[u] = net.capacitance()[u] / dt;
  }
  return d;
}

SteadyStateSolver::SteadyStateSolver(const RcNetwork& net)
    : net_(&net), ldlt_(net.conductance_sparse()) {}

std::vector<double> SteadyStateSolver::solve(
    const std::vector<double>& power) const {
  RENOC_CHECK(static_cast<int>(power.size()) == net_->node_count());
  return ldlt_.solve(power);
}

void SteadyStateSolver::solve_into(const std::vector<double>& power,
                                   std::vector<double>& rise) const {
  RENOC_CHECK(static_cast<int>(power.size()) == net_->node_count());
  rise.resize(power.size());
  std::copy(power.begin(), power.end(), rise.begin());
  ldlt_.solve_in_place(rise);
}

std::vector<double> SteadyStateSolver::solve_die_power(
    const std::vector<double>& die_power) const {
  return solve(expand_into(*net_, die_power, full_power_));
}

void SteadyStateSolver::solve_die_power_into(
    const std::vector<double>& die_power, std::vector<double>& rise) const {
  RENOC_CHECK_MSG(&die_power != &rise,
                  "die power and rise buffers must be distinct");
  solve_into(expand_into(*net_, die_power, full_power_), rise);
}

double SteadyStateSolver::peak_die_temperature(
    const std::vector<double>& die_power) const {
  solve_die_power_into(die_power, rise_);
  return net_->ambient() + net_->peak_die_rise(rise_);
}

TransientSolver::TransientSolver(const RcNetwork& net, double dt)
    : net_(&net),
      dt_(dt),
      c_over_dt_(step_capacitance_diagonal(net, dt)),
      step_ldlt_(net.conductance_sparse().plus_diagonal(c_over_dt_)),
      state_(static_cast<std::size_t>(net.node_count()), 0.0),
      rhs_(static_cast<std::size_t>(net.node_count()), 0.0) {}

void TransientSolver::set_state(std::vector<double> rise) {
  RENOC_CHECK(static_cast<int>(rise.size()) == net_->node_count());
  state_ = std::move(rise);
}

void TransientSolver::set_state_to_steady(
    const std::vector<double>& die_power) {
  SteadyStateSolver steady(*net_);
  state_ = steady.solve_die_power(die_power);
}

void TransientSolver::step(const std::vector<double>& power) {
  RENOC_CHECK(static_cast<int>(power.size()) == net_->node_count());
  for (std::size_t i = 0; i < state_.size(); ++i)
    rhs_[i] = c_over_dt_[i] * state_[i] + power[i];
  step_ldlt_.solve_in_place(rhs_);
  std::swap(state_, rhs_);
}

void TransientSolver::step_die_power(const std::vector<double>& die_power) {
  step(expand_into(*net_, die_power, full_power_));
}

}  // namespace renoc
