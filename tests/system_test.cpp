// Integration tests: the full reconfigurable LDPC system (decode +
// migrate + resume, function preserved, deterministic overhead), the
// experiment driver (calibration, scheme evaluation sanity) and the
// full-scale adaptive and DTM runs, pinned bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <ios>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive_policy.hpp"
#include "core/chip_config.hpp"
#include "core/dtm_baselines.hpp"
#include "core/experiment.hpp"
#include "core/migration_controller.hpp"
#include "core/reconfigurable_system.hpp"
#include "core/transform.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"
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

/// FNV-1a over the golden decode of a block: one byte per hard bit, then
/// one for syndrome_ok.
std::uint64_t decode_digest(const DecodeResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t bit : result.hard_bits) {
    h ^= bit;
    h *= 0x100000001b3ULL;
  }
  h ^= result.syndrome_ok ? 1u : 0u;
  h *= 0x100000001b3ULL;
  return h;
}

TEST(ChipBuildTest, ChannelLlrsMatchParent) {
  // NoC cycles and activity counts do not depend on the data values, so no
  // golden or perfbench count notices if build_chip encodes a different
  // (still valid) codeword. These digests of the encoded, noisy block were
  // recorded from the Gauss-Jordan encoder; any encoder must reproduce its
  // codewords exactly. The second digest is the golden min-sum decode of
  // that block at the configuration's iteration budget (21-33 iterations on
  // n = 2046/2400 at full scale), the result run_stream holds every NoC
  // decode to; any decoder layout must reproduce it exactly.
  struct Pin {
    const char* config;
    bool smoke;
    std::uint64_t digest;
    std::uint64_t decoded;
  };
  const Pin pins[] = {
      {"A", false, 0x6167f5e03445b2f0ULL, 0xa5feeeedcd8eff8aULL},
      {"B", false, 0xf2ec7510b7c47faaULL, 0xd9c59a71f98d2c3aULL},
      {"C", false, 0x7e3ad8c492eedbebULL, 0x9d4f39e36938a720ULL},
      {"D", false, 0x75252dd33fe8546fULL, 0x17ac16324a19457cULL},
      {"E", false, 0x8ca83f484ddde380ULL, 0x1050e945a82cf774ULL},
      {"A", true, 0x314406d5a1b05f8bULL, 0xcfa43c43624133a2ULL},
      {"C", true, 0xdf4376c4e470a3beULL, 0xeea1b3a5d6d684f0ULL},
  };
  for (const Pin& pin : pins) {
    const ChipConfig base = config_by_name(pin.config);
    const ChipConfig cfg = pin.smoke ? smoke_scaled(base) : base;
    const BuiltChip built = build_chip(cfg);
    const std::uint64_t got = llr_digest(built.channel_llrs);
    EXPECT_EQ(got, pin.digest) << pin.config << (pin.smoke ? " (smoke)" : "")
                               << ": got 0x" << std::hex << got;
    const std::uint64_t decoded = decode_digest(
        MinSumDecoder(built.code, cfg.ldpc_params.iterations)
            .decode(built.channel_llrs));
    EXPECT_EQ(decoded, pin.decoded)
        << pin.config << (pin.smoke ? " (smoke)" : "") << ": decoded 0x"
        << std::hex << decoded;
  }
}

// One configuration's adaptive and DTM runs as renoc_paper makes them at
// full scale: reals as bit patterns, counts exact, printable as the
// literal rows below so a failure shows the row it got.
struct AdaptivePin {
  std::uint64_t settled_peak_bits = 0;
  int migrations = 0;
  std::array<int, 7> choices{};  // per TransformKind, in enum order
  bool operator==(const AdaptivePin&) const = default;
};

struct DtmPin {
  std::uint64_t peak_bits = 0;
  std::uint64_t mean_bits = 0;
  std::uint64_t throughput_bits = 0;
  int throttle_events = 0;
  bool operator==(const DtmPin&) const = default;
};

struct AdaptiveDtmPin {
  const char* config = "";
  // Predictive peak, coolest history, orbit average.
  std::array<AdaptivePin, 3> adaptive{};
  DtmPin stop_go;
  DtmPin dvfs;
};

std::ostream& operator<<(std::ostream& os, const AdaptivePin& p) {
  os << "{0x" << std::hex << p.settled_peak_bits << std::dec << ", "
     << p.migrations << ", {";
  for (std::size_t k = 0; k < p.choices.size(); ++k)
    os << (k ? ", " : "") << p.choices[k];
  return os << "}}";
}

std::ostream& operator<<(std::ostream& os, const DtmPin& p) {
  return os << std::hex << "{0x" << p.peak_bits << ", 0x" << p.mean_bits
            << ", 0x" << p.throughput_bits << std::dec << ", "
            << p.throttle_events << "}";
}

TEST(ExperimentDriverTest, PaperScaleAdaptiveAndDtmMatchParent) {
  // The only other cover of these runs is the 40-period smoke golden, at
  // 5e-4 relative. Here each full-scale config runs all three adaptive
  // objectives for 150 periods and both DTM controllers for 400 periods
  // at the default period, trip and setpoint 3 and 4 C below the base
  // peak. A change to how a trajectory is integrated (ordering, fused
  // sweeps, accumulator splits) moves these bits.
  const AdaptiveDtmPin pins[] = {
      {"A",
       {{{0x4053594997f8a6c0, 80, {70, 12, 49, 0, 9, 6, 4}},
         {0x40535dd3d3a9598e, 10, {140, 1, 0, 0, 3, 5, 1}},
         {0x4053ecfe7cd769bc, 150, {0, 150, 0, 0, 0, 0, 0}}}},
       {0x40549ce2e542ab72, 0x4052679f16b9e6f7, 0x3feb47ae147ae148, 11},
       {0x4054784f218d62e6, 0x40526882b106b1ce, 0x3feb5721d9636b96, 400}},
      {"B",
       {{{0x40533eb03af1d240, 30, {120, 5, 10, 0, 12, 1, 2}},
         {0x40531c4fa2994e74, 11, {139, 1, 2, 0, 4, 2, 2}},
         {0x4053a9d158b5877a, 150, {0, 150, 0, 0, 0, 0, 0}}}},
       {0x40544475c9231b46, 0x4052429d5171deca, 0x3feb0a3d70a3d70a, 10},
       {0x40542077b3c92f6f, 0x4052460918f2551a, 0x3feb1e70004eea98, 400}},
      {"C",
       {{{0x4051771e1fe607f5, 47, {103, 2, 39, 0, 1, 2, 3}},
         {0x40517ad10d3c5d7b, 5, {145, 1, 0, 0, 1, 0, 3}},
         {0x40518d66c307e611, 150, {0, 148, 0, 0, 0, 0, 2}}}},
       {0x40520bbab4bf70af, 0x40508af7580fe2f3, 0x3fe8e147ae147ae1, 10},
       {0x4051f27f5184f578, 0x405095e8bf99cee1, 0x3fe9762b30239146, 400}},
      {"D",
       {{{0x405113fb87f23e0c, 90, {60, 1, 60, 0, 27, 0, 2}},
         {0x4051250ac6795bff, 5, {145, 0, 0, 0, 1, 0, 4}},
         {0x405175e8d9213d1c, 150, {0, 0, 0, 0, 0, 0, 150}}}},
       {0x405174165f77c7c6, 0x405029bd1a2f3599, 0x3fe87ae147ae147b, 10},
       {0x40515d712bc10c0c, 0x40503656ea7f8d56, 0x3fe90d8e71d23891, 400}},
      {"E",
       {{{0x405186bb0ee46a85, 67, {83, 18, 23, 0, 23, 0, 3}},
         {0x4051853042a24a08, 6, {144, 0, 0, 0, 3, 0, 3}},
         {0x40520b131e2be392, 150, {0, 0, 0, 0, 0, 0, 150}}}},
       {0x40523f46c61fde12, 0x40509853db5a664e, 0x3fe91eb851eb851f, 10},
       {0x4052256bb362a93a, 0x4050a2137dbaa0ef, 0x3fe9934946caf0d3, 400}},
  };
  const AdaptiveObjective objectives[] = {AdaptiveObjective::kPredictivePeak,
                                          AdaptiveObjective::kCoolestHistory,
                                          AdaptiveObjective::kOrbitAverage};
  for (const AdaptiveDtmPin& want : pins) {
    const ChipConfig cfg = config_by_name(want.config);
    ExperimentDriver driver(cfg);
    driver.prepare();
    const RcNetwork& net = driver.thermal_network();
    const double period = driver.default_period_s();
    std::map<TransformKind, std::vector<double>> energy_maps;
    for (MigrationScheme scheme : figure1_schemes())
      energy_maps[transform_of(scheme).kind] =
          driver.migration_energy_map(scheme);
    AdaptiveSimConfig sim;
    sim.period_s = period;
    sim.periods = 150;

    AdaptiveDtmPin got;
    got.config = want.config;
    for (std::size_t o = 0; o < got.adaptive.size(); ++o) {
      AdaptivePolicy policy(net, cfg.dim, objectives[o], period);
      const AdaptiveSimResult r = run_adaptive_simulation(
          net, cfg.dim, policy, driver.base_power(), energy_maps, sim);
      AdaptivePin& pin = got.adaptive[o];
      pin.settled_peak_bits = std::bit_cast<std::uint64_t>(r.settled_peak_c);
      pin.migrations = r.migrations;
      for (const auto& [kind, count] : r.choices)
        pin.choices[static_cast<std::size_t>(kind)] = count;
    }
    auto dtm_pin = [](const DtmRunResult& r) {
      return DtmPin{std::bit_cast<std::uint64_t>(r.peak_temp_c),
                    std::bit_cast<std::uint64_t>(r.mean_temp_c),
                    std::bit_cast<std::uint64_t>(r.throughput_fraction),
                    r.throttle_events};
    };
    const double base_peak = driver.base_peak_temp_c();
    got.stop_go = dtm_pin(StopGoController(net, base_peak - 3.0)
                              .run(driver.base_power(), period, 400));
    got.dvfs = dtm_pin(DvfsController(net, base_peak - 4.0)
                           .run(driver.base_power(), period, 400));

    const bool match = got.adaptive == want.adaptive &&
                       got.stop_go == want.stop_go && got.dvfs == want.dvfs;
    EXPECT_TRUE(match) << "got {\"" << got.config << "\", {{"
                       << got.adaptive[0] << ", " << got.adaptive[1] << ", "
                       << got.adaptive[2] << "}}, " << got.stop_go << ", "
                       << got.dvfs << "}";
  }
}

/// FNV-1a step over the eight little-endian bytes of `v`.
void fnv_word(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

// One block stream as perfbench's `stream` workload and the period record
// run it: orbit_length + 1 blocks from the identity placement, with a
// migration after each block but the last. Reals as bit patterns, counts
// exact, printable as the literal rows below so a failure shows the row
// it got.
struct StreamBlockPin {
  Cycle cycles = 0;
  std::uint64_t bits = 0;  ///< FNV-1a of the hard bits, then syndrome_ok
  bool operator==(const StreamBlockPin&) const = default;
};

struct StreamPin {
  const char* config = "";
  bool smoke = false;
  MigrationScheme scheme = MigrationScheme::kShiftXY;
  std::vector<StreamBlockPin> blocks;
  // Migration totals over the stream: total cycles, transfer cycles,
  // phases, state flits, moves.
  std::array<std::uint64_t, 5> migrations{};
  // The fabric after the stream: FNV-1a over every tile's nine counters,
  // packets and flits delivered, the latency count and the bit patterns of
  // its mean, min and max, and now().
  std::uint64_t tiles = 0;
  std::array<std::uint64_t, 7> fabric{};

  bool same_run(const StreamPin& o) const {
    return blocks == o.blocks && migrations == o.migrations &&
           tiles == o.tiles && fabric == o.fabric;
  }
};

std::ostream& operator<<(std::ostream& os, const StreamPin& p) {
  os << "{\"" << p.config << "\", " << (p.smoke ? "true" : "false")
     << ", MigrationScheme::"
     << (p.scheme == MigrationScheme::kRotation ? "kRotation" : "kShiftXY")
     << ",\n {";
  for (std::size_t b = 0; b < p.blocks.size(); ++b)
    os << (b == 0 ? "" : b % 2 ? ", " : ",\n  ") << "{" << std::dec
       << p.blocks[b].cycles << ", 0x" << std::hex << p.blocks[b].bits << "}";
  os << std::dec << "},\n {";
  for (std::size_t i = 0; i < p.migrations.size(); ++i)
    os << (i ? ", " : "") << p.migrations[i];
  os << "},\n 0x" << std::hex << p.tiles << ",\n {" << std::dec
     << p.fabric[0] << ", " << p.fabric[1] << ", " << p.fabric[2] << ", 0x"
     << std::hex << p.fabric[3] << ", 0x" << p.fabric[4] << ",\n  0x"
     << p.fabric[5] << ", " << std::dec << p.fabric[6] << "}}";
  return os;
}

StreamPin run_pinned_stream(const char* name, bool smoke,
                            MigrationScheme scheme) {
  const ChipConfig cfg =
      smoke ? smoke_scaled(config_by_name(name)) : config_by_name(name);
  const BuiltChip built = build_chip(cfg);
  Fabric fabric(cfg.noc);
  std::vector<int> placement = identity_permutation(cfg.dim.node_count());
  placement.resize(static_cast<std::size_t>(built.partition.cluster_count));
  NocLdpcDecoder decoder(fabric, built.code, built.partition, placement,
                         cfg.ldpc_params);
  MigrationController controller(fabric, transform_of(scheme));
  std::vector<int> state_words;
  for (int c = 0; c < decoder.cluster_count(); ++c)
    state_words.push_back(decoder.migration_state_words(c));

  StreamPin got{name, smoke, scheme, {}, {}, 0, {}};
  const int blocks = orbit_length(transform_of(scheme), cfg.dim) + 1;
  for (int b = 0; b < blocks; ++b) {
    const NocDecodeResult res = decoder.decode_block(built.channel_llrs);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t bit : res.hard_bits) {
      h ^= bit;
      h *= 0x100000001b3ULL;
    }
    h ^= res.syndrome_ok ? 1u : 0u;
    h *= 0x100000001b3ULL;
    got.blocks.push_back({res.cycles, h});
    if (b + 1 == blocks) break;
    const MigrationReport rep = controller.migrate(placement, state_words);
    decoder.set_placement(placement);
    got.migrations[0] += rep.total_cycles;
    got.migrations[1] += rep.transfer_cycles;
    got.migrations[2] += static_cast<std::uint64_t>(rep.phases);
    got.migrations[3] += rep.state_flits;
    got.migrations[4] += static_cast<std::uint64_t>(rep.moves);
  }

  const NetworkStats& st = fabric.stats();
  got.tiles = 0xcbf29ce484222325ULL;
  for (int t = 0; t < st.node_count(); ++t) {
    const TileActivity& a = st.tile(t);
    for (const std::uint64_t v :
         {a.buffer_writes, a.buffer_reads, a.crossbar_traversals,
          a.arbitrations, a.link_flits, a.injected_flits, a.ejected_flits,
          a.pe_compute_ops, a.pe_state_words})
      fnv_word(got.tiles, v);
  }
  const RunningStats& lat = st.packet_latency();
  got.fabric = {st.packets_delivered(),
                st.flits_delivered(),
                lat.count(),
                std::bit_cast<std::uint64_t>(lat.mean()),
                std::bit_cast<std::uint64_t>(lat.min()),
                std::bit_cast<std::uint64_t>(lat.max()),
                fabric.now()};
  return got;
}

TEST(StreamTest, PaperScaleStreamsMatchParent) {
  // The NoC decode's cycles, activity counters and latency accumulator
  // feed every power map and penalty, but the goldens see them only at
  // smoke scale, where a block runs 4 iterations. Here full-scale A-E
  // stream one X-Y Shift orbit each and A and B one rotation orbit (21-33
  // iterations per block), plus smoke A and C; a change to how a block is
  // simulated may make it faster, never different.
  const std::vector<StreamPin> pins = {
      {"A", false, MigrationScheme::kShiftXY,
       {{54103, 0xa5feeeedcd8eff8a}, {53859, 0xa5feeeedcd8eff8a},
        {53758, 0xa5feeeedcd8eff8a}, {54002, 0xa5feeeedcd8eff8a},
        {54103, 0xa5feeeedcd8eff8a}},
       {1516, 836, 4, 10232, 64},
       0x3ea2116acb08ab2f,
       {37444, 341192, 37444, 0x40345a3bac190cf6, 0x4000000000000000,
        0x4078b00000000000, 271341}},
      {"B", false, MigrationScheme::kShiftXY,
       {{56947, 0xd9c59a71f98d2c3a}, {56046, 0xd9c59a71f98d2c3a},
        {56640, 0xd9c59a71f98d2c3a}, {55706, 0xd9c59a71f98d2c3a},
        {56947, 0xd9c59a71f98d2c3a}},
       {1517, 837, 4, 10232, 64},
       0x2c51319081d18071,
       {15424, 364952, 15424, 0x4043dd5e8a175e79, 0x4018000000000000,
        0x4074800000000000, 283803}},
      {"C", false, MigrationScheme::kShiftXY,
       {{53870, 0x9d4f39e36938a720}, {54414, 0x9d4f39e36938a720},
        {53474, 0x9d4f39e36938a720}, {54595, 0x9d4f39e36938a720},
        {53126, 0x9d4f39e36938a720}, {53870, 0x9d4f39e36938a720}},
       {1652, 802, 5, 16000, 125},
       0xf285935028dc5372,
       {116561, 705316, 116561, 0x40354e4ca5462a4a, 0x4008000000000000,
        0x406e000000000000, 325001}},
      {"D", false, MigrationScheme::kShiftXY,
       {{53622, 0x17ac16324a19457c}, {54483, 0x17ac16324a19457c},
        {54843, 0x17ac16324a19457c}, {54303, 0x17ac16324a19457c},
        {55375, 0x17ac16324a19457c}, {53622, 0x17ac16324a19457c}},
       {1734, 884, 5, 16000, 125},
       0xabe270cf91799de4,
       {124469, 722068, 124469, 0x4034d84e12e071c7, 0x4008000000000000,
        0x4072300000000000, 327982}},
      {"E", false, MigrationScheme::kShiftXY,
       {{55780, 0x1050e945a82cf774}, {58864, 0x1050e945a82cf774},
        {57702, 0x1050e945a82cf774}, {56762, 0x1050e945a82cf774},
        {56096, 0x1050e945a82cf774}, {55780, 0x1050e945a82cf774}},
       {1652, 802, 5, 16000, 125},
       0x53b5813dcd799c3c,
       {114173, 717568, 114173, 0x403611d883c0998c, 0x4000000000000000,
        0x4069e00000000000, 342636}},
      {"A", true, MigrationScheme::kShiftXY,
       {{2865, 0xcfa43c43624133a2}, {2851, 0xcfa43c43624133a2},
        {2845, 0xcfa43c43624133a2}, {2869, 0xcfa43c43624133a2},
        {2865, 0xcfa43c43624133a2}},
       {1004, 324, 4, 4088, 64},
       0x78c466d0c31c5251,
       {5984, 22128, 5984, 0x4025e0836c2654e1, 0x4000000000000000,
        0x405a800000000000, 15299}},
      {"C", true, MigrationScheme::kShiftXY,
       {{1930, 0xeea1b3a5d6d684f0}, {1944, 0xeea1b3a5d6d684f0},
        {1944, 0xeea1b3a5d6d684f0}, {1973, 0xeea1b3a5d6d684f0},
        {1924, 0xeea1b3a5d6d684f0}, {1930, 0xeea1b3a5d6d684f0}},
       {1202, 352, 5, 7000, 125},
       0x78261b86db9ff3ca,
       {14093, 33544, 14093, 0x402a8a7d853d990b, 0x4000000000000000,
        0x4053800000000000, 12847}},
      {"A", false, MigrationScheme::kRotation,
       {{54103, 0xa5feeeedcd8eff8a}, {54176, 0xa5feeeedcd8eff8a},
        {54104, 0xa5feeeedcd8eff8a}, {54313, 0xa5feeeedcd8eff8a},
        {54103, 0xa5feeeedcd8eff8a}},
       {3720, 2480, 12, 10232, 64},
       0x34c4a24c040cbe9e,
       {37444, 341192, 37444, 0x40333ee476082650, 0x4000000000000000,
        0x4080500000000000, 274519}},
      {"B", false, MigrationScheme::kRotation,
       {{56947, 0xd9c59a71f98d2c3a}, {56742, 0xd9c59a71f98d2c3a},
        {56947, 0xd9c59a71f98d2c3a}, {55785, 0xd9c59a71f98d2c3a},
        {56947, 0xd9c59a71f98d2c3a}},
       {3722, 2482, 12, 10232, 64},
       0x2588159ea9b23bd4,
       {15424, 364952, 15424, 0x4044d1362c9d3639, 0x4018000000000000,
        0x4079200000000000, 287090}}};
  for (const StreamPin& want : pins) {
    const StreamPin got = run_pinned_stream(want.config, want.smoke,
                                            want.scheme);
    EXPECT_TRUE(got.same_run(want)) << "got\n" << got;
  }
}

TEST(StreamTest, EveryPaperScaleBlockReplaysMostOfItsCycles) {
  // The streams pinned above, checked for how they were simulated: every
  // full-scale block settles into a repeating iteration that the decoder
  // replays instead of stepping, for more than half of its cycles.
  struct Run {
    const char* config;
    MigrationScheme scheme;
  };
  const Run runs[] = {
      {"A", MigrationScheme::kShiftXY},  {"B", MigrationScheme::kShiftXY},
      {"C", MigrationScheme::kShiftXY},  {"D", MigrationScheme::kShiftXY},
      {"E", MigrationScheme::kShiftXY},  {"A", MigrationScheme::kRotation},
      {"B", MigrationScheme::kRotation}};
  for (const Run& run : runs) {
    const ChipConfig cfg = config_by_name(run.config);
    const BuiltChip built = build_chip(cfg);
    Fabric fabric(cfg.noc);
    std::vector<int> placement = identity_permutation(cfg.dim.node_count());
    placement.resize(static_cast<std::size_t>(built.partition.cluster_count));
    NocLdpcDecoder decoder(fabric, built.code, built.partition, placement,
                           cfg.ldpc_params);
    MigrationController controller(fabric, transform_of(run.scheme));
    std::vector<int> state_words;
    for (int c = 0; c < decoder.cluster_count(); ++c)
      state_words.push_back(decoder.migration_state_words(c));
    const int blocks = orbit_length(transform_of(run.scheme), cfg.dim) + 1;
    for (int b = 0; b < blocks; ++b) {
      const NocDecodeResult res = decoder.decode_block(built.channel_llrs);
      EXPECT_GT(res.replayed_cycles, res.cycles / 2)
          << run.config << " " << to_string(run.scheme) << " block " << b
          << " of " << res.cycles << " cycles";
      if (b + 1 == blocks) break;
      controller.migrate(placement, state_words);
      decoder.set_placement(placement);
    }
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
