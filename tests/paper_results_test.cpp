// Pins the paper-results pipeline at smoke scale: the Figure-1 peak
// reductions, the period-sweep throughput penalty (analytic halt model vs
// actually streaming blocks through the reconfigurable system), and the
// resolution ablation's scheme ordering. These are the headline numbers
// the PAPER_*.json goldens freeze; the test keeps them anchored to the
// engine layer itself so a golden refresh that silently changes the
// physics cannot pass unnoticed.
//
// The pinned constants are the smoke-scale values (code_n 510/600,
// 4 LDPC iterations, 4000 placer iterations): smoke_scaled(), the scaling
// renoc_paper --smoke runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/chip_config.hpp"
#include "core/experiment.hpp"
#include "core/experiment_sweep.hpp"
#include "core/reconfigurable_system.hpp"

namespace renoc {
namespace {

TEST(PaperResultsTest, Figure1SmokeReductionsPinned) {
  // Configuration A (4x4): rotation is the strongest scheme at smoke
  // scale, X-Y shift close behind at less than half the throughput cost.
  {
    ExperimentDriver driver(smoke_scaled(config_A()));
    driver.prepare();
    const std::vector<SchemeEvaluation> evals = driver.scheme_study(
        {MigrationScheme::kRotation, MigrationScheme::kShiftXY});
    ASSERT_EQ(evals.size(), 2u);
    const SchemeEvaluation& rot = evals[0];
    const SchemeEvaluation& shift = evals[1];

    EXPECT_NEAR(driver.base_peak_temp_c(), 85.44, 0.05);
    EXPECT_NEAR(rot.reduction_c, 5.43, 0.05);
    EXPECT_NEAR(shift.reduction_c, 4.56, 0.05);
    EXPECT_GT(rot.reduction_c, shift.reduction_c);
    // Rotation's four-phase migration costs roughly twice the shift's.
    EXPECT_NEAR(rot.throughput_penalty, 0.0100, 0.001);
    EXPECT_NEAR(shift.throughput_penalty, 0.0046, 0.001);
    EXPECT_TRUE(rot.thermal_converged);
    EXPECT_TRUE(shift.thermal_converged);
  }

  // Configuration C (5x5, odd mesh): X-Y shift leads.
  {
    ExperimentDriver driver(smoke_scaled(config_C()));
    driver.prepare();
    const std::vector<SchemeEvaluation> evals =
        driver.scheme_study({MigrationScheme::kShiftXY});
    ASSERT_EQ(evals.size(), 1u);
    EXPECT_NEAR(driver.base_peak_temp_c(), 75.17, 0.05);
    EXPECT_NEAR(evals[0].reduction_c, 4.47, 0.05);
  }
}

TEST(PaperResultsTest, PeriodSweepStreamedPenaltyMatchesModel) {
  // The analytic halt model (t_mig / (t_mig + period)) must agree with
  // the penalty measured by streaming real blocks through the
  // ReconfigurableLdpcSystem with interleaved migrations, and the
  // penalty must fall roughly as 1/period.
  const ChipConfig cfg = smoke_scaled(config_A());
  ExperimentDriver driver(cfg);
  driver.prepare();

  const int blocks_per_period[] = {1, 4, 8};
  std::vector<double> periods;
  for (int blocks : blocks_per_period)
    periods.push_back(blocks * driver.block_seconds());
  const std::vector<SchemeEvaluation> evals =
      driver.scheme_study({MigrationScheme::kRotation}, periods);
  ASSERT_EQ(evals.size(), 3u);

  for (std::size_t i = 0; i < evals.size(); ++i) {
    const int bpp = blocks_per_period[i];
    ReconfigurableLdpcSystem migrating(cfg, MigrationScheme::kRotation);
    const StreamResult res = migrating.run_stream(2 * bpp, bpp);
    ASSERT_TRUE(res.all_blocks_match_golden);
    ASSERT_EQ(res.migrations, 1);
    const double mig = static_cast<double>(res.migration_cycles);
    const double period =
        static_cast<double>(bpp) *
        static_cast<double>(migrating.block_cycles());
    const double streamed = mig / (mig + period);

    // The model abstracts pipeline edge effects; agreement is within a
    // few percent relative (exact for the measured smoke configs at the
    // shift scheme, <1% for rotation).
    EXPECT_NEAR(evals[i].throughput_penalty, streamed,
                0.05 * streamed)
        << "blocks/period = " << bpp;
  }
  // 8x the period cuts the penalty by close to 8x.
  EXPECT_GT(evals[0].throughput_penalty, 4.0 * evals[2].throughput_penalty);
  EXPECT_NEAR(evals[0].throughput_penalty, 0.161, 0.005);
}

TEST(PaperResultsTest, ResolutionAblationPreservesSchemeOrdering) {
  // The Figure-1 conclusion must be resolution-robust: refining the
  // thermal grid (one node per tile -> refine^2 sub-blocks) may shave
  // the magnitudes but must not reorder the schemes.
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare();

  ExperimentSweepConfig sweep;
  sweep.dim = driver.chip().config.dim;
  sweep.hotspot = driver.chip().config.hotspot;
  sweep.schemes = {MigrationScheme::kRotation, MigrationScheme::kShiftXY};
  sweep.periods_s = {driver.default_period_s()};
  sweep.refines = {1, 2, 3};
  sweep.base_tile_power = driver.base_power();
  sweep.power_jitter = 0.0;
  sweep.migration_energy_j = 0.0;
  sweep.threads = 2;
  const std::vector<ExperimentSweepPoint> points = run_experiment_sweep(sweep);
  ASSERT_EQ(points.size(), 6u);

  // refine=1 is the block model: the engine's static peak must match the
  // driver's bit-for-bit path to ~solver tolerance.
  EXPECT_NEAR(points[0].static_peak_c, driver.base_peak_temp_c(), 1e-6);

  double prev_base = 1e9;
  for (std::size_t r = 0; r < 3; ++r) {
    const ExperimentSweepPoint& rot = points[r];
    const ExperimentSweepPoint& shift = points[3 + r];
    ASSERT_EQ(rot.scenario.refine, shift.scenario.refine);
    const double base = rot.static_peak_c;
    const double rot_red = base - rot.steady_peak_of_avg_c;
    const double shift_red = base - shift.steady_peak_of_avg_c;

    EXPECT_GT(rot_red, 0.0);
    EXPECT_GT(shift_red, 0.0);
    // Rotation leads X-Y shift at every resolution for configuration A.
    EXPECT_GT(rot_red, shift_red) << "refine = " << rot.scenario.refine;
    // Sub-block resolution sharpens gradients: the reported peak of the
    // averaged map can only drop as refinement localizes the hotspot.
    EXPECT_LT(base, prev_base);
    prev_base = base;
  }

  // Pin the block-model magnitudes (refine=1).
  EXPECT_NEAR(points[0].static_peak_c - points[0].steady_peak_of_avg_c, 5.67,
              0.05);
  EXPECT_NEAR(points[3].static_peak_c - points[3].steady_peak_of_avg_c, 4.87,
              0.05);
}

}  // namespace
}  // namespace renoc
