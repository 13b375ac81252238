#include "core/dtm_baselines.hpp"

#include <algorithm>

#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

constexpr int kStepsPerPeriod = 20;

/// power * (leakage_floor + (1 - leakage_floor) * duty) into `scaled`.
void scale_power(const std::vector<double>& power, double duty,
                 double leakage_floor, std::vector<double>& scaled) {
  scaled.resize(power.size());
  const double factor = leakage_floor + (1.0 - leakage_floor) * duty;
  for (std::size_t i = 0; i < power.size(); ++i)
    scaled[i] = power[i] * factor;
}

}  // namespace

StopGoController::StopGoController(const RcNetwork& net, double trip_c,
                                   double hysteresis_c, double leakage_floor)
    : net_(&net),
      trip_c_(trip_c),
      hysteresis_c_(hysteresis_c),
      leakage_floor_(leakage_floor) {
  RENOC_CHECK(hysteresis_c > 0);
  RENOC_CHECK(leakage_floor >= 0 && leakage_floor < 1);
  RENOC_CHECK(trip_c > net.ambient());
}

DtmRunResult StopGoController::run(const std::vector<double>& power,
                                   double period_s, int periods) const {
  RENOC_CHECK(period_s > 0 && periods >= 4);
  TransientSolver transient(*net_, period_s / kStepsPerPeriod);
  transient.set_state_to_steady(power);

  std::vector<double> halted;
  scale_power(power, 0.0, leakage_floor_, halted);
  DtmRunResult result;
  bool running = true;
  double uptime = 0.0;
  double mean_accum = 0.0;
  std::uint64_t samples = 0;
  double settled_peak = 0.0;

  for (int p = 0; p < periods; ++p) {
    const double peak =
        net_->ambient() + net_->peak_die_rise(transient.state());
    if (running && peak > trip_c_) {
      running = false;
      ++result.throttle_events;
    } else if (!running && peak < trip_c_ - hysteresis_c_) {
      running = true;
    }
    const std::vector<double>& p_now = running ? power : halted;
    for (int s = 0; s < kStepsPerPeriod; ++s) {
      transient.step_die_power(p_now);
      const double t =
          net_->ambient() + net_->peak_die_rise(transient.state());
      if (p >= periods - periods / 4)
        settled_peak = std::max(settled_peak, t);
      mean_accum += net_->ambient() + net_->mean_die_rise(transient.state());
      ++samples;
    }
    if (running) uptime += 1.0;
  }
  result.peak_temp_c = settled_peak;
  result.mean_temp_c = mean_accum / static_cast<double>(samples);
  result.throughput_fraction = uptime / periods;
  return result;
}

DvfsController::DvfsController(const RcNetwork& net, double setpoint_c,
                               double gain, double d_min,
                               double leakage_floor)
    : net_(&net),
      setpoint_c_(setpoint_c),
      gain_(gain),
      d_min_(d_min),
      leakage_floor_(leakage_floor) {
  RENOC_CHECK(gain > 0);
  RENOC_CHECK(d_min > 0 && d_min <= 1);
  RENOC_CHECK(leakage_floor >= 0 && leakage_floor < 1);
  RENOC_CHECK(setpoint_c > net.ambient());
}

DtmRunResult DvfsController::run(const std::vector<double>& power,
                                 double period_s, int periods) const {
  RENOC_CHECK(period_s > 0 && periods >= 4);
  TransientSolver transient(*net_, period_s / kStepsPerPeriod);
  transient.set_state_to_steady(power);

  DtmRunResult result;
  std::vector<double> p_now;
  double duty_sum = 0.0;
  double mean_accum = 0.0;
  std::uint64_t samples = 0;
  double settled_peak = 0.0;

  for (int p = 0; p < periods; ++p) {
    const double peak =
        net_->ambient() + net_->peak_die_rise(transient.state());
    const double duty =
        std::clamp(1.0 - gain_ * (peak - setpoint_c_), d_min_, 1.0);
    if (duty < 1.0) ++result.throttle_events;
    scale_power(power, duty, leakage_floor_, p_now);
    for (int s = 0; s < kStepsPerPeriod; ++s) {
      transient.step_die_power(p_now);
      const double t =
          net_->ambient() + net_->peak_die_rise(transient.state());
      if (p >= periods - periods / 4)
        settled_peak = std::max(settled_peak, t);
      mean_accum += net_->ambient() + net_->mean_die_rise(transient.state());
      ++samples;
    }
    duty_sum += duty;
  }
  result.peak_temp_c = settled_peak;
  result.mean_temp_c = mean_accum / static_cast<double>(samples);
  result.throughput_fraction = duty_sum / periods;
  return result;
}

}  // namespace renoc
