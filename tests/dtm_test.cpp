// Tests for the chip-wide DTM baselines (stop-go clock disabling and
// proportional DVFS) used in the motivation comparison.
#include <gtest/gtest.h>

#include "core/dtm_baselines.hpp"
#include "floorplan/floorplan.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

struct Env {
  Floorplan fp;
  RcNetwork net;

  Env()
      : fp(make_grid_floorplan(GridDim{4, 4}, date05_tile_area())),
        net(build_rc_network(fp, date05_hotspot_params())) {}

  double static_peak(const std::vector<double>& power) const {
    SteadyStateSolver solver(net);
    return solver.peak_die_temperature(power);
  }
};

std::vector<double> hot_map() {
  std::vector<double> power(16, 2.5);
  power[5] = 7.0;
  return power;
}

constexpr double kPeriod = 110e-6;

TEST(StopGoTest, TripAboveStaticPeakNeverThrottles) {
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const StopGoController ctrl(env.net, peak + 5.0);
  const DtmRunResult r = ctrl.run(power, kPeriod, 200);
  EXPECT_EQ(r.throttle_events, 0);
  EXPECT_DOUBLE_EQ(r.throughput_fraction, 1.0);
  EXPECT_NEAR(r.peak_temp_c, peak, 0.1);
}

TEST(StopGoTest, EnforcesTripPoint) {
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const double trip = peak - 4.0;
  const StopGoController ctrl(env.net, trip);
  const DtmRunResult r = ctrl.run(power, kPeriod, 2000);
  EXPECT_GT(r.throttle_events, 0);
  // Settled peak hovers at the trip (plus one control period of overshoot).
  EXPECT_LT(r.peak_temp_c, trip + 1.0);
  // And the chip paid for it with lost uptime.
  EXPECT_LT(r.throughput_fraction, 1.0);
  EXPECT_GT(r.throughput_fraction, 0.05);
}

TEST(StopGoTest, LowerTripCostsMoreThroughput) {
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const StopGoController mild(env.net, peak - 2.0);
  const StopGoController harsh(env.net, peak - 6.0);
  const double mild_tp =
      mild.run(power, kPeriod, 2000).throughput_fraction;
  const double harsh_tp =
      harsh.run(power, kPeriod, 2000).throughput_fraction;
  EXPECT_LT(harsh_tp, mild_tp);
}

TEST(DvfsTest, SetpointAboveStaticPeakRunsFullSpeed) {
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const DvfsController ctrl(env.net, peak + 5.0);
  const DtmRunResult r = ctrl.run(power, kPeriod, 200);
  EXPECT_DOUBLE_EQ(r.throughput_fraction, 1.0);
}

TEST(DvfsTest, ConvergesNearSetpoint) {
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const double setpoint = peak - 5.0;
  const DvfsController ctrl(env.net, setpoint);
  const DtmRunResult r = ctrl.run(power, kPeriod, 3000);
  // Proportional control settles a little above the setpoint but far
  // below the unthrottled peak.
  EXPECT_LT(r.peak_temp_c, peak - 2.0);
  EXPECT_LT(r.throughput_fraction, 1.0);
}

TEST(DvfsTest, GlobalThrottlingIsExpensive) {
  // The headline physics: cooling a local hotspot by ~10% of its rise via
  // global throttling costs roughly that fraction of total throughput —
  // orders of magnitude above migration's ~1.6%.
  Env env;
  const auto power = hot_map();
  const double peak = env.static_peak(power);
  const DvfsController ctrl(env.net, peak - 4.0);
  const DtmRunResult r = ctrl.run(power, kPeriod, 3000);
  EXPECT_GT(1.0 - r.throughput_fraction, 0.05);
}

bool results_identical(const DtmRunResult& a, const DtmRunResult& b) {
  return a.peak_temp_c == b.peak_temp_c && a.mean_temp_c == b.mean_temp_c &&
         a.throughput_fraction == b.throughput_fraction &&
         a.throttle_events == b.throttle_events;
}

// run() keeps no state between calls: repeated and mixed-period runs of
// one controller stay bit-identical to a fresh controller's.
TEST(DtmRunTest, RepeatedAndMixedPeriodRunsBitIdenticalToFresh) {
  Env env;
  const auto power = hot_map();
  const double trip = env.static_peak(power) - 4.0;

  const StopGoController warm_sg(env.net, trip);
  const DtmRunResult sg_first = warm_sg.run(power, kPeriod, 300);
  const DtmRunResult sg_other = warm_sg.run(power, 2 * kPeriod, 300);
  const DtmRunResult sg_back = warm_sg.run(power, kPeriod, 300);

  EXPECT_TRUE(results_identical(sg_first, sg_back));
  EXPECT_TRUE(results_identical(
      sg_first, StopGoController(env.net, trip).run(power, kPeriod, 300)));
  EXPECT_TRUE(results_identical(
      sg_other,
      StopGoController(env.net, trip).run(power, 2 * kPeriod, 300)));

  const DvfsController warm_dv(env.net, trip);
  const DtmRunResult dv_first = warm_dv.run(power, kPeriod, 300);
  const DtmRunResult dv_other = warm_dv.run(power, 2 * kPeriod, 300);
  const DtmRunResult dv_back = warm_dv.run(power, kPeriod, 300);

  EXPECT_TRUE(results_identical(dv_first, dv_back));
  EXPECT_TRUE(results_identical(
      dv_first, DvfsController(env.net, trip).run(power, kPeriod, 300)));
  EXPECT_TRUE(results_identical(
      dv_other,
      DvfsController(env.net, trip).run(power, 2 * kPeriod, 300)));
}

TEST(DtmValidationTest, BadParamsRejected) {
  Env env;
  EXPECT_THROW(StopGoController(env.net, 30.0), CheckError);  // < amb
  EXPECT_THROW(DvfsController(env.net, 30.0), CheckError);
  const StopGoController ok(env.net, 80.0);
  EXPECT_THROW(ok.run(hot_map(), -1.0, 100), CheckError);
  EXPECT_THROW(ok.run(hot_map(), kPeriod, 2), CheckError);
}

}  // namespace
}  // namespace renoc
