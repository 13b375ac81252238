#include "core/dtm_baselines.hpp"

#include <algorithm>

#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

constexpr int kStepsPerPeriod = 20;
/// Per-tile power left when the clock is gated (leakage + always-on
/// logic), as a fraction of each tile's nominal power.
constexpr double kLeakageFloor = 0.1;
/// Stop-go resumes once the peak is this far below the trip point (C).
constexpr double kHysteresisC = 1.0;
/// DVFS proportional gain (per C above the setpoint) and lowest
/// frequency multiplier.
constexpr double kDvfsGain = 0.25;
constexpr double kDvfsMinDuty = 0.1;

/// power * (kLeakageFloor + (1 - kLeakageFloor) * duty) into `scaled`.
void scale_power(const std::vector<double>& power, double duty,
                 std::vector<double>& scaled) {
  scaled.resize(power.size());
  const double factor = kLeakageFloor + (1.0 - kLeakageFloor) * duty;
  for (std::size_t i = 0; i < power.size(); ++i)
    scaled[i] = power[i] * factor;
}

/// The loop both controllers run: starts a transient solver for
/// `period_s` at the steady state of `power`, and for each of `periods`
/// control periods integrates kStepsPerPeriod steps of the map
/// `power_for(peak)` returns, where `peak` is the die peak (C) at the
/// period's start. Fills the settled peak (max over the last quarter) and
/// the mean die temperature; the caller fills throughput and throttling.
template <typename PowerFor>
DtmRunResult integrate(const RcNetwork& net, const std::vector<double>& power,
                       double period_s, int periods, PowerFor power_for) {
  RENOC_CHECK(period_s > 0 && periods >= 4);
  TransientSolver transient(net, period_s / kStepsPerPeriod);
  transient.set_state_to_steady(power);

  double mean_accum = 0.0;
  std::uint64_t samples = 0;
  double settled_peak = 0.0;
  for (int p = 0; p < periods; ++p) {
    const std::vector<double>& p_now =
        power_for(net.ambient() + net.peak_die_rise(transient.state()));
    for (int s = 0; s < kStepsPerPeriod; ++s) {
      transient.step_die_power(p_now);
      const double t = net.ambient() + net.peak_die_rise(transient.state());
      if (p >= periods - periods / 4)
        settled_peak = std::max(settled_peak, t);
      mean_accum += net.ambient() + net.mean_die_rise(transient.state());
      ++samples;
    }
  }
  DtmRunResult result;
  result.peak_temp_c = settled_peak;
  result.mean_temp_c = mean_accum / static_cast<double>(samples);
  return result;
}

}  // namespace

StopGoController::StopGoController(const RcNetwork& net, double trip_c)
    : net_(&net), trip_c_(trip_c) {
  RENOC_CHECK(trip_c > net.ambient());
}

DtmRunResult StopGoController::run(const std::vector<double>& power,
                                   double period_s, int periods) const {
  std::vector<double> halted;
  scale_power(power, 0.0, halted);
  bool running = true;
  int halts = 0;
  int up_periods = 0;
  DtmRunResult result = integrate(
      *net_, power, period_s, periods,
      [&](double peak) -> const std::vector<double>& {
        if (running && peak > trip_c_) {
          running = false;
          ++halts;
        } else if (!running && peak < trip_c_ - kHysteresisC) {
          running = true;
        }
        if (!running) return halted;
        ++up_periods;
        return power;
      });
  result.throttle_events = halts;
  result.throughput_fraction = static_cast<double>(up_periods) / periods;
  return result;
}

DvfsController::DvfsController(const RcNetwork& net, double setpoint_c)
    : net_(&net), setpoint_c_(setpoint_c) {
  RENOC_CHECK(setpoint_c > net.ambient());
}

DtmRunResult DvfsController::run(const std::vector<double>& power,
                                 double period_s, int periods) const {
  std::vector<double> p_now;
  int slowdowns = 0;
  double duty_sum = 0.0;
  DtmRunResult result = integrate(
      *net_, power, period_s, periods,
      [&](double peak) -> const std::vector<double>& {
        const double duty = std::clamp(
            1.0 - kDvfsGain * (peak - setpoint_c_), kDvfsMinDuty, 1.0);
        if (duty < 1.0) ++slowdowns;
        duty_sum += duty;
        scale_power(power, duty, p_now);
        return p_now;
      });
  result.throttle_events = slowdowns;
  result.throughput_fraction = duty_sum / periods;
  return result;
}

}  // namespace renoc
