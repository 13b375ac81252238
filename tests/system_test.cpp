// Integration tests: the full reconfigurable LDPC system (decode +
// migrate + resume, function preserved, deterministic overhead) and the
// experiment driver (calibration, scheme evaluation sanity).
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/chip_config.hpp"
#include "core/experiment.hpp"
#include "core/reconfigurable_system.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

TEST(ReconfigurableSystemTest, MigrationPreservesDecodeFunction) {
  ReconfigurableLdpcSystem system(smoke_scaled(config_A()),
                                  MigrationScheme::kRotation);
  const StreamResult res = system.run_stream(/*blocks=*/6,
                                             /*blocks_per_migration=*/1);
  EXPECT_TRUE(res.all_blocks_match_golden)
      << "decode results must be bit-identical to golden across migrations";
  EXPECT_EQ(res.blocks, 6);
  EXPECT_EQ(res.migrations, 5);
  EXPECT_GT(res.migration_cycles, 0u);
}

TEST(ReconfigurableSystemTest, FourRotationsReturnHome) {
  ReconfigurableLdpcSystem system(smoke_scaled(config_A()),
                                  MigrationScheme::kRotation);
  const StreamResult res = system.run_stream(5, 1);  // 4 migrations
  EXPECT_EQ(res.migrations, 4);
  EXPECT_EQ(res.final_placement,
            std::vector<int>(system.placement().begin(),
                             system.placement().end()));
  // Rotation^4 = identity.
  EXPECT_EQ(res.final_placement, identity_permutation(16));
  // I/O translator also back to identity.
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(system.translator().logical_to_physical(i), i);
}

TEST(ReconfigurableSystemTest, ThroughputPenaltyScalesWithPeriod) {
  // Migrating every block costs ~k times more than every k blocks.
  ReconfigurableLdpcSystem every1(smoke_scaled(config_A()),
                                  MigrationScheme::kShiftXY);
  const StreamResult r1 = every1.run_stream(8, 1);
  ReconfigurableLdpcSystem every4(smoke_scaled(config_A()),
                                  MigrationScheme::kShiftXY);
  const StreamResult r4 = every4.run_stream(8, 4);
  EXPECT_GT(r1.throughput_penalty, r4.throughput_penalty * 2.5);
  EXPECT_LT(r1.throughput_penalty, 0.5);  // still a small fraction
}

TEST(ReconfigurableSystemTest, NoMigrationMeansNoPenalty) {
  ReconfigurableLdpcSystem system(smoke_scaled(config_A()),
                                  MigrationScheme::kMirrorX);
  const StreamResult res = system.run_stream(3, 0);
  EXPECT_EQ(res.migrations, 0);
  EXPECT_EQ(res.migration_cycles, 0u);
  EXPECT_DOUBLE_EQ(res.throughput_penalty, 0.0);
  EXPECT_TRUE(res.all_blocks_match_golden);
}

TEST(ReconfigurableSystemTest, WorksOnOddMesh) {
  ReconfigurableLdpcSystem system(smoke_scaled(config_C()),
                                  MigrationScheme::kShiftXY);
  const StreamResult res = system.run_stream(6, 1);
  EXPECT_TRUE(res.all_blocks_match_golden);
  EXPECT_EQ(res.migrations, 5);
  // Orbit length is 5 on a 5x5 XY shift; after 5 migrations we are home.
  EXPECT_EQ(res.final_placement, identity_permutation(25));
}

TEST(ExperimentDriverTest, PrepareCalibratesToPaperBaseline) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(/*measure_blocks=*/1);
  EXPECT_NEAR(driver.base_peak_temp_c(), 85.44, 0.01)
      << "calibration must hit the paper's base peak temperature";
  EXPECT_GT(driver.calibration_scale(), 0.0);
  EXPECT_GT(driver.block_cycles(), 0u);
  EXPECT_GT(driver.total_power_w(), 0.0);
  // The identity-placement peak is computed in (uncalibrated) model units
  // and must be a real temperature above ambient.
  EXPECT_GT(driver.identity_placement_peak_c(), 40.0);
  const auto temps = driver.baseline_die_temps();
  EXPECT_EQ(static_cast<int>(temps.size()), 16);
  double peak = 0;
  for (double t : temps) peak = std::max(peak, t);
  EXPECT_NEAR(peak, 85.44, 0.01);
}

TEST(ExperimentDriverTest, StaticSchemeHasZeroReduction) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  const SchemeEvaluation eval =
      driver.evaluate_scheme(MigrationScheme::kNone);
  EXPECT_DOUBLE_EQ(eval.reduction_c, 0.0);
  EXPECT_NEAR(eval.peak_temp_c, driver.base_peak_temp_c(), 1e-9);
  EXPECT_EQ(eval.orbit_length, 1);
}

TEST(ExperimentDriverTest, RotationEvaluationIsSane) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  const SchemeEvaluation eval =
      driver.evaluate_scheme(MigrationScheme::kRotation);
  EXPECT_EQ(eval.orbit_length, 4);
  EXPECT_TRUE(eval.thermal_converged);
  EXPECT_GT(eval.migration_s, 0.0);
  EXPECT_GT(eval.throughput_penalty, 0.0);
  EXPECT_LT(eval.throughput_penalty, 0.2);
  EXPECT_GT(eval.migration_energy_j, 0.0);
  EXPECT_GT(eval.phases, 0);
  // On an even mesh with a thermally-imbalanced map, rotation should cool
  // the chip (the Figure 1 headline).
  EXPECT_GT(eval.reduction_c, 0.0);
}

TEST(ExperimentDriverTest, SchemeStudySharesCachesConsistently) {
  // evaluate_scheme caches the per-scheme migration measurement and the
  // per-period thermal runtime; repeated and grouped evaluations must be
  // identical to the first (both underlying simulations are
  // deterministic), and a period sweep of one scheme must reuse the same
  // measured migration timing/energy at every period.
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  const double p1 = driver.default_period_s();
  const double p2 = 2 * p1;

  const SchemeEvaluation first =
      driver.evaluate_scheme(MigrationScheme::kRotation, p1);
  const SchemeEvaluation again =
      driver.evaluate_scheme(MigrationScheme::kRotation, p1);
  EXPECT_EQ(first.peak_temp_c, again.peak_temp_c);
  EXPECT_EQ(first.mean_temp_c, again.mean_temp_c);
  EXPECT_EQ(first.ripple_c, again.ripple_c);
  EXPECT_EQ(first.migration_s, again.migration_s);
  EXPECT_EQ(first.migration_energy_j, again.migration_energy_j);
  EXPECT_EQ(first.state_flits, again.state_flits);

  const auto study =
      driver.scheme_study({MigrationScheme::kNone,
                           MigrationScheme::kRotation},
                          {p1, p2});
  ASSERT_EQ(study.size(), 4u);
  EXPECT_EQ(study[0].scheme, MigrationScheme::kNone);
  EXPECT_DOUBLE_EQ(study[0].period_s, p1);
  EXPECT_EQ(study[2].scheme, MigrationScheme::kRotation);
  // The rotation row at p1 equals the standalone evaluation.
  EXPECT_EQ(study[2].peak_temp_c, first.peak_temp_c);
  EXPECT_EQ(study[2].migration_s, first.migration_s);
  // Migration timing/energy depend only on the scheme, not the period.
  EXPECT_EQ(study[3].migration_s, study[2].migration_s);
  EXPECT_EQ(study[3].migration_energy_j, study[2].migration_energy_j);
  EXPECT_EQ(study[3].phases, study[2].phases);
  // But the throughput penalty does scale with the period.
  EXPECT_LT(study[3].throughput_penalty, study[2].throughput_penalty);

  // Re-preparing invalidates both caches: the evaluation afterwards must
  // run against the fresh network/calibration (same config -> same
  // numbers), not against freed or stale cached state.
  driver.prepare(1);
  const SchemeEvaluation after =
      driver.evaluate_scheme(MigrationScheme::kRotation, p1);
  EXPECT_EQ(after.peak_temp_c, first.peak_temp_c);
  EXPECT_EQ(after.migration_s, first.migration_s);
}

TEST(ExperimentDriverTest, SchemeStudyBitMatchesEvaluateScheme) {
  // scheme_study runs each period's schemes as one lockstep co-simulation
  // batch; every cell must equal evaluate_scheme (a batch of one) on a
  // fresh driver in every field. The scheme list repeats one scheme.
  std::vector<MigrationScheme> schemes{MigrationScheme::kNone};
  for (const MigrationScheme s : figure1_schemes()) schemes.push_back(s);
  schemes.push_back(MigrationScheme::kRotation);

  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  const double p1 = driver.default_period_s();
  const std::vector<double> periods{p1, 4 * p1, 8 * p1};
  const std::vector<SchemeEvaluation> study =
      driver.scheme_study(schemes, periods);
  ASSERT_EQ(study.size(), schemes.size() * periods.size());

  ExperimentDriver lone(smoke_scaled(config_A()));
  lone.prepare(1);
  for (std::size_t s = 0; s < schemes.size(); ++s)
    for (std::size_t p = 0; p < periods.size(); ++p) {
      const SchemeEvaluation& got = study[s * periods.size() + p];
      const SchemeEvaluation want =
          lone.evaluate_scheme(schemes[s], periods[p]);
      const std::string label = std::string(to_string(schemes[s])) +
                                " period " + std::to_string(p);
      EXPECT_EQ(got.scheme, want.scheme) << label;
      EXPECT_EQ(got.period_s, want.period_s) << label;
      EXPECT_EQ(got.orbit_length, want.orbit_length) << label;
      EXPECT_EQ(got.peak_temp_c, want.peak_temp_c) << label;
      EXPECT_EQ(got.reduction_c, want.reduction_c) << label;
      EXPECT_EQ(got.mean_temp_c, want.mean_temp_c) << label;
      EXPECT_EQ(got.ripple_c, want.ripple_c) << label;
      EXPECT_EQ(got.migration_s, want.migration_s) << label;
      EXPECT_EQ(got.throughput_penalty, want.throughput_penalty) << label;
      EXPECT_EQ(got.phases, want.phases) << label;
      EXPECT_EQ(got.state_flits, want.state_flits) << label;
      EXPECT_EQ(got.migration_energy_j, want.migration_energy_j) << label;
      EXPECT_EQ(got.thermal_converged, want.thermal_converged) << label;
    }
}

TEST(ExperimentDriverTest, NonFinitePeriodRejected) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  EXPECT_THROW(driver.evaluate_scheme(
                   MigrationScheme::kRotation,
                   std::numeric_limits<double>::infinity()),
               CheckError);
}

TEST(ExperimentDriverTest, EvaluateBeforePrepareRejected) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  EXPECT_THROW(driver.evaluate_scheme(MigrationScheme::kRotation),
               CheckError);
}

TEST(ChipConfigTest, AllFiveConfigsBuild) {
  for (const ChipConfig& cfg : all_configs()) {
    const BuiltChip built = build_chip(cfg);
    EXPECT_EQ(built.partition.cluster_count, cfg.dim.node_count());
    EXPECT_EQ(static_cast<int>(built.channel_llrs.size()),
              cfg.workload.code_n);
    // Traffic matrix has the right shape and some cross-cluster load.
    std::uint64_t total = 0;
    for (const auto& row : built.traffic)
      for (std::uint64_t v : row) total += v;
    EXPECT_GT(total, 0u);
  }
  EXPECT_EQ(config_by_name("D").name, "D");
  EXPECT_THROW(config_by_name("Z"), CheckError);
}

/// FNV-1a over the quantized LLRs, two little-endian bytes each.
std::uint64_t llr_digest(const std::vector<std::int16_t>& llrs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int16_t q : llrs) {
    const auto u = static_cast<std::uint16_t>(q);
    for (int i = 0; i < 2; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(ChipBuildTest, ChannelLlrsMatchParent) {
  // NoC cycles and activity counts do not depend on the data values, so no
  // golden or perfbench count notices if build_chip encodes a different
  // (still valid) codeword. These digests of the encoded, noisy block were
  // recorded from the Gauss-Jordan encoder; any encoder must reproduce its
  // codewords exactly.
  struct Pin {
    const char* config;
    bool smoke;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"A", false, 0x6167f5e03445b2f0ULL},
      {"B", false, 0xf2ec7510b7c47faaULL},
      {"C", false, 0x7e3ad8c492eedbebULL},
      {"D", false, 0x75252dd33fe8546fULL},
      {"E", false, 0x8ca83f484ddde380ULL},
      {"A", true, 0x314406d5a1b05f8bULL},
      {"C", true, 0xdf4376c4e470a3beULL},
  };
  for (const Pin& pin : pins) {
    const ChipConfig base = config_by_name(pin.config);
    const BuiltChip built = build_chip(pin.smoke ? smoke_scaled(base) : base);
    const std::uint64_t got = llr_digest(built.channel_llrs);
    EXPECT_EQ(got, pin.digest) << pin.config << (pin.smoke ? " (smoke)" : "")
                               << ": got 0x" << std::hex << got;
  }
}

TEST(ChipConfigTest, CfuRowConcentratesCheckWork) {
  // The architectural CFU row (y=0 for configuration A) must do more
  // per-tile edge work than the plain BFU tiles — the paper's "one row
  // with significantly higher power output".
  const ChipConfig cfg = config_A();
  const BuiltChip built = build_chip(cfg);
  const auto& ops = built.cluster_ops;
  std::uint64_t cfu_min = ~0ull, bfu_max = 0;
  for (int x = 0; x < 4; ++x) {
    cfu_min = std::min(cfu_min,
                       ops[static_cast<std::size_t>(
                           coord_to_index({x, 0}, cfg.dim))]);
  }
  // Plain BFU tiles: not on the CFU row (y=0 -> ids 0..3) and not the
  // hybrid tiles at (1,1)=5, (2,2)=10, (3,3)=15.
  for (int id : {4, 6, 7, 8, 9, 11, 12, 13, 14}) {
    bfu_max = std::max(bfu_max, ops[static_cast<std::size_t>(id)]);
  }
  EXPECT_GT(cfu_min, bfu_max);
}

TEST(ChipConfigTest, CfuRowTalksToEveryBfuCluster) {
  // Check clusters receive variable messages from across the whole code,
  // so the CFU row exchanges traffic with essentially every BFU tile.
  const ChipConfig cfg = config_C();
  const BuiltChip built = build_chip(cfg);
  const int cfu = coord_to_index({2, 2}, cfg.dim);
  int partners = 0;
  for (int j = 0; j < 25; ++j) {
    if (j == cfu) continue;
    if (built.traffic[static_cast<std::size_t>(cfu)][
            static_cast<std::size_t>(j)] > 0)
      ++partners;
  }
  EXPECT_GE(partners, 15);
}

TEST(ChipConfigTest, PinsKeepCfuRowInPlace) {
  ExperimentDriver driver(smoke_scaled(config_A()));
  driver.prepare(1);
  const auto& placement = driver.baseline_placement();
  for (const auto& pin : config_A().workload.pins)
    EXPECT_EQ(placement[static_cast<std::size_t>(pin.cluster)], pin.tile);
}

}  // namespace
}  // namespace renoc
