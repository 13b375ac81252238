// util/sweep tests: the crash-safe sweep service's full contract.
//
// Four clusters:
//   * indexing/RNG/boilerplate — decode/encode round trips on every
//     harness's axis shape, enumeration-order equality with nested loops,
//     the stateless per-scenario stream every harness draws from, and the
//     pinned shared validation messages all three harnesses emit;
//   * sharding — stride partition properties and bit-identity of any
//     N-way merge with the single-shard run, for the toy spec and for all
//     three harness specs. Each harness's run_*_sweep entry point is that
//     single-shard run, so these cases cover what renoc_paper runs;
//   * checkpointing — segment round trips, kill-at-every-boundary resume
//     (every stop point merges bit-identical to a straight-through run),
//     a half-way kill and resume on all three harness specs, and the
//     validation ladder: each defect class (truncated file,
//     flipped payload bit, wrong schema version, overlapping ranges,
//     stale config, wrong geometry, malformed record, out-of-range
//     integer) is rejected with a CheckError naming that defect;
//   * conservation — completed + failed + skipped == enumerated in every
//     merge, with failures captured and missing shards materialized as
//     skipped.
#include "util/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment_sweep.hpp"
#include "ldpc/ber_harness.hpp"
#include "noc/sweep_harness.hpp"
#include "support/helpers.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace renoc::sweep {
namespace {

namespace fs = std::filesystem;

// --- helpers ---------------------------------------------------------------

/// What a failing RENOC_CHECK said, or "" if `fn` did not throw.
template <typename Fn>
std::string check_message(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// Deterministic toy spec: scenario i's record is the first `words` draws
/// of scenario_rng(salt, i). Cheap enough to run hundreds of times.
SweepSpec toy_spec(std::int64_t enumerated, int words = 3,
                   std::uint64_t salt = 42) {
  SweepSpec spec;
  spec.enumerated = enumerated;
  spec.record_words = words;
  DigestBuilder digest;
  digest.fold_string("toy").fold(salt).fold_int(enumerated).fold_int(words);
  spec.config_digest = digest.digest();
  spec.make_runner = [salt, words] {
    return [salt, words](std::int64_t scenario, std::uint64_t* out) {
      Rng rng = scenario_rng(salt, scenario);
      for (int k = 0; k < words; ++k) out[k] = rng.next_u64();
    };
  };
  return spec;
}

bool records_equal(const std::vector<ScenarioRecord>& a,
                   const std::vector<ScenarioRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].scenario != b[i].scenario || a[i].outcome != b[i].outcome ||
        a[i].words != b[i].words)
      return false;
  return true;
}

/// Scratch checkpoint directory, unique per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("renoc_sweep_test_" + name + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  CheckpointConfig ckpt(int every = 2) const {
    CheckpointConfig c;
    c.directory = path.string();
    c.every = every;
    return c;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void spill(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// In-place text edit of a checkpoint file; fails the test if `from` is
/// absent.
void patch_file(const std::string& path, const std::string& from,
                const std::string& to) {
  std::string text = slurp(path);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << from << " not in " << path;
  text.replace(pos, from.size(), to);
  spill(path, text);
}

// --- scenario indexing -----------------------------------------------------

TEST(ScenarioIndexTest, RoundTripsOnEveryHarnessShape) {
  const std::vector<std::vector<std::int64_t>> shapes = {
      {3, 7},                    // ber: points x blocks
      {2, 2, 3, 1, 2, 1, 2},     // noc: 7 axes
      {4, 2, 3, 2},              // experiment: 4 axes
      {1},
      {1, 1, 1},
      {5},
  };
  std::vector<std::int64_t> digits;
  for (const auto& shape : shapes) {
    const std::int64_t total = axis_product(shape);
    for (std::int64_t i = 0; i < total; ++i) {
      decode_scenario_index(i, shape, digits);
      ASSERT_EQ(digits.size(), shape.size());
      for (std::size_t k = 0; k < shape.size(); ++k) {
        ASSERT_GE(digits[k], 0);
        ASSERT_LT(digits[k], shape[k]);
      }
      ASSERT_EQ(encode_scenario_index(digits, shape), i);
    }
  }
}

TEST(ScenarioIndexTest, MatchesNestedLoopOrder) {
  // The decoder's contract: index order IS nested-loop order with the
  // last axis fastest. Enumerate a 3-axis grid both ways.
  const std::vector<std::int64_t> shape = {2, 3, 4};
  std::vector<std::vector<std::int64_t>> by_loops;
  for (std::int64_t a = 0; a < 2; ++a)
    for (std::int64_t b = 0; b < 3; ++b)
      for (std::int64_t c = 0; c < 4; ++c) by_loops.push_back({a, b, c});
  std::vector<std::int64_t> digits;
  for (std::int64_t i = 0; i < axis_product(shape); ++i) {
    decode_scenario_index(i, shape, digits);
    EXPECT_EQ(digits, by_loops[static_cast<std::size_t>(i)]) << "index " << i;
  }
}

TEST(ScenarioIndexTest, RejectsOutOfRangeIndexAndDigits) {
  const std::vector<std::int64_t> shape = {2, 3};
  std::vector<std::int64_t> digits;
  EXPECT_THROW(decode_scenario_index(6, shape, digits), CheckError);
  EXPECT_THROW(decode_scenario_index(-1, shape, digits), CheckError);
  EXPECT_THROW(encode_scenario_index({2, 0}, shape), CheckError);
  EXPECT_THROW(axis_product({2, 0}), CheckError);
}

TEST(ScenarioIndexTest, HarnessGridsEnumerateInIndexOrder) {
  // noc: scenarios()[i] must be the decode of i over the 7-axis shape, in
  // the documented axis order.
  SweepConfig noc;
  noc.patterns = {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose};
  noc.mesh_sides = {4, 8};
  noc.injection_rates = {0.05, 0.1, 0.2};
  noc.message_words = {2, 4};
  noc.fault_counts = {0, 2};
  noc.fault_kinds = {FaultKind::kLinkDead, FaultKind::kRouterDead};
  noc.retry_budgets = {kGuardDisabled, 3};
  const std::vector<SweepScenario> grid = noc.scenarios();
  const std::vector<std::int64_t> shape = {2, 2, 3, 2, 2, 2, 2};
  ASSERT_EQ(static_cast<std::int64_t>(grid.size()), axis_product(shape));
  std::vector<std::int64_t> d;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    decode_scenario_index(static_cast<std::int64_t>(i), shape, d);
    EXPECT_EQ(grid[i].pattern, noc.patterns[static_cast<std::size_t>(d[0])]);
    EXPECT_EQ(grid[i].dim.width,
              noc.mesh_sides[static_cast<std::size_t>(d[1])]);
    EXPECT_EQ(grid[i].injection_rate,
              noc.injection_rates[static_cast<std::size_t>(d[2])]);
    EXPECT_EQ(grid[i].message_words,
              noc.message_words[static_cast<std::size_t>(d[3])]);
    EXPECT_EQ(grid[i].fault_count,
              noc.fault_counts[static_cast<std::size_t>(d[4])]);
    EXPECT_EQ(grid[i].fault_kind,
              noc.fault_kinds[static_cast<std::size_t>(d[5])]);
    EXPECT_EQ(grid[i].retry_budget,
              noc.retry_budgets[static_cast<std::size_t>(d[6])]);
  }

  // experiment: same check over its 4-axis shape.
  ExperimentSweepConfig exp;
  exp.schemes = {MigrationScheme::kNone, MigrationScheme::kRotation};
  exp.periods_s = {54.65e-6, 109.3e-6};
  exp.power_scales = {1.0, 1.5};
  exp.refines = {1, 2};
  const std::vector<ExperimentScenario> egrid = exp.scenarios();
  const std::vector<std::int64_t> eshape = {2, 2, 2, 2};
  ASSERT_EQ(static_cast<std::int64_t>(egrid.size()), axis_product(eshape));
  for (std::size_t i = 0; i < egrid.size(); ++i) {
    decode_scenario_index(static_cast<std::int64_t>(i), eshape, d);
    EXPECT_EQ(egrid[i].scheme, exp.schemes[static_cast<std::size_t>(d[0])]);
    EXPECT_EQ(egrid[i].period_s,
              exp.periods_s[static_cast<std::size_t>(d[1])]);
    EXPECT_EQ(egrid[i].power_scale,
              exp.power_scales[static_cast<std::size_t>(d[2])]);
    EXPECT_EQ(egrid[i].refine, exp.refines[static_cast<std::size_t>(d[3])]);
  }
}

// --- RNG streams -----------------------------------------------------------

TEST(ScenarioRngTest, StatelessDerivationPerSeedAndIndex) {
  // The one per-scenario stream all three harnesses draw from: the same
  // (seed, index) replays the same stream, and a different index or seed
  // gives a different one (the O(1) replay property's foundation).
  for (const std::uint64_t seed : {1ULL, 9ULL, 42ULL, 0xDEADBEEFULL}) {
    for (const std::int64_t i : {0, 1, 4, 7, 1000}) {
      const std::uint64_t draw = scenario_rng(seed, i).next_u64();
      EXPECT_EQ(draw, scenario_rng(seed, i).next_u64());
      EXPECT_NE(draw, scenario_rng(seed, i + 1).next_u64());
      EXPECT_NE(draw, scenario_rng(seed + 1, i).next_u64());
      // Pinned to one SplitMix64 step, so no refactor moves a harness's
      // draws (and with them every golden).
      EXPECT_EQ(draw, Rng(derive_stream_seed(
                              seed, static_cast<std::uint64_t>(i)))
                          .next_u64());
    }
  }
  EXPECT_THROW(scenario_rng(9, -1), CheckError);
  // ber chains a second derivation for (point, block).
  Rng direct = ber_block_rng(7, 3, 11);
  Rng chained(derive_stream_seed(derive_stream_seed(7, 3), 11));
  EXPECT_EQ(direct.next_u64(), chained.next_u64());
}

// --- shared validation boilerplate ----------------------------------------

TEST(ValidationTest, PinnedAxisMessagesAreIdenticalAcrossHarnesses) {
  // The hoisted helper gives all three harnesses the same message shape;
  // these strings are pinned — scripts may grep for them.
  BerConfig ber;
  ber.ebn0_db.clear();
  EXPECT_NE(check_message([&] { ber.validate(); })
                .find("sweep needs at least one Eb/N0"),
            std::string::npos);

  SweepConfig noc;
  noc.patterns.clear();
  EXPECT_NE(check_message([&] { noc.validate(); })
                .find("sweep needs at least one pattern"),
            std::string::npos);

  ExperimentSweepConfig exp;
  exp.schemes.clear();
  EXPECT_NE(check_message([&] { exp.validate(); })
                .find("sweep needs at least one scheme"),
            std::string::npos);

  // Thread clamp: same message, same value formatting, in all three.
  const std::string want = "sweep threads must be >= 1, got 0";
  BerConfig ber2;
  ber2.ebn0_db = {1.0};
  ber2.threads = 0;
  EXPECT_NE(check_message([&] { ber2.validate(); }).find(want),
            std::string::npos);
  SweepConfig noc2;
  noc2.threads = 0;
  EXPECT_NE(check_message([&] { noc2.validate(); }).find(want),
            std::string::npos);
  ExperimentSweepConfig exp2;
  exp2.threads = 0;
  EXPECT_NE(check_message([&] { exp2.validate(); }).find(want),
            std::string::npos);
}

TEST(ValidationTest, ClampWorkers) {
  EXPECT_EQ(clamp_workers(4, 100), 4);
  EXPECT_EQ(clamp_workers(4, 2), 2);
  EXPECT_EQ(clamp_workers(4, 0), 1);  // at least one worker spins up
  EXPECT_EQ(clamp_workers(1, 100), 1);
  EXPECT_THROW(clamp_workers(0, 10), CheckError);
}

// --- sharding --------------------------------------------------------------

TEST(ShardTest, StridePartitionIsExactAndAscending) {
  const std::int64_t enumerated = 23;
  for (const int count : {1, 2, 3, 4, 7}) {
    std::vector<int> owner(static_cast<std::size_t>(enumerated), -1);
    std::int64_t total = 0;
    for (int i = 0; i < count; ++i) {
      const Shard shard{i, count};
      shard.validate();
      const std::int64_t owned = shard.owned_count(enumerated);
      total += owned;
      std::int64_t prev = -1;
      for (std::int64_t pos = 0; pos < owned; ++pos) {
        const std::int64_t s = shard.owned_at(pos);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, enumerated);
        ASSERT_GT(s, prev);  // ascending
        prev = s;
        ASSERT_TRUE(shard.owns(s));
        ASSERT_EQ(owner[static_cast<std::size_t>(s)], -1);  // disjoint
        owner[static_cast<std::size_t>(s)] = i;
      }
    }
    EXPECT_EQ(total, enumerated);  // complete
  }
}

TEST(ShardTest, RejectsBadGeometry) {
  EXPECT_THROW((Shard{0, 0}.validate()), CheckError);
  EXPECT_THROW((Shard{-1, 2}.validate()), CheckError);
  EXPECT_THROW((Shard{2, 2}.validate()), CheckError);
}

TEST(ShardRunTest, AnySplitMergesToTheSingleShardRun) {
  const SweepSpec spec = toy_spec(17);
  const std::vector<ScenarioRecord> baseline =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  ASSERT_EQ(baseline.size(), 17u);
  for (const int shards : {1, 2, 4}) {
    std::vector<std::vector<ScenarioRecord>> parts;
    for (int s = 0; s < shards; ++s) {
      ShardRunOptions opt;
      opt.shard = Shard{s, shards};
      parts.push_back(run_sweep_shard(spec, opt).records);
    }
    const MergeResult merged = merge_shard_records(spec.enumerated, parts);
    EXPECT_TRUE(merged.counts.conserved());
    EXPECT_EQ(merged.counts.skipped, 0);
    EXPECT_TRUE(records_equal(baseline, merged.records)) << shards;
  }
}

TEST(ShardRunTest, ThreadCountDoesNotChangeRecords) {
  const SweepSpec spec = toy_spec(11);
  const std::vector<ScenarioRecord> one =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  ShardRunOptions four;
  four.threads = 4;
  EXPECT_TRUE(records_equal(one, run_sweep_shard(spec, four).records));
}

// --- harness adapters ------------------------------------------------------

/// The service contract on a real harness spec: the 2- and 4-way stride
/// splits, and a run killed half way and then resumed, all merge to the
/// single-shard records. Returns those records for the caller to compare
/// against the harness's run_*_sweep entry point, which runs that same
/// single shard in process.
std::vector<ScenarioRecord> expect_service_identity(const SweepSpec& spec,
                                                    const std::string& name) {
  const std::vector<ScenarioRecord> baseline =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  EXPECT_EQ(static_cast<std::int64_t>(baseline.size()), spec.enumerated);
  for (const int shards : {2, 4}) {
    std::vector<std::vector<ScenarioRecord>> parts;
    for (int s = 0; s < shards; ++s) {
      ShardRunOptions opt;
      opt.shard = Shard{s, shards};
      parts.push_back(run_sweep_shard(spec, opt).records);
    }
    const MergeResult merged = merge_shard_records(spec.enumerated, parts);
    EXPECT_TRUE(merged.counts.conserved()) << shards;
    EXPECT_EQ(merged.counts.skipped, 0) << shards;
    EXPECT_TRUE(records_equal(baseline, merged.records)) << shards;
  }

  // Kill half way (no tail flush, as a SIGKILL would) with a checkpoint
  // period of a quarter, so the resume must recover flushed records rather
  // than recompute everything.
  const ScratchDir dir(name);
  ShardRunOptions killed;
  killed.checkpoint = dir.ckpt(
      static_cast<int>(std::max<std::int64_t>(1, spec.enumerated / 4)));
  killed.stop_after = spec.enumerated / 2;
  run_sweep_shard(spec, killed);
  ShardRunOptions resume;
  resume.checkpoint = killed.checkpoint;
  const ShardRunResult done = run_sweep_shard(spec, resume);
  EXPECT_GT(done.resumed, 0);
  EXPECT_TRUE(records_equal(baseline, done.records));
  const MergeResult merged = merge_checkpoints(spec, resume.checkpoint, 1);
  EXPECT_TRUE(merged.counts.conserved());
  EXPECT_EQ(merged.counts.skipped, 0);
  EXPECT_TRUE(records_equal(baseline, merged.records));
  return baseline;
}

TEST(HarnessAdapterTest, BerServiceRunEqualsDirectSweep) {
  Rng code_rng(3);
  const LdpcCode code = LdpcCode::make_regular(120, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  BerConfig cfg;
  cfg.ebn0_db = {1.0, 3.0};
  cfg.blocks_per_point = 5;
  cfg.iterations = 4;
  cfg.seed = 99;
  const std::vector<BerPoint> direct = run_ber_sweep(code, encoder, cfg);

  const SweepSpec spec = make_ber_sweep_spec(code, encoder, cfg);
  EXPECT_EQ(spec.enumerated, 10);
  const std::vector<BerPoint> service =
      ber_points_from_records(cfg, expect_service_identity(spec, "ber"));
  ASSERT_EQ(service.size(), direct.size());
  for (std::size_t p = 0; p < direct.size(); ++p) {
    EXPECT_EQ(service[p].ebn0_db, direct[p].ebn0_db);
    EXPECT_EQ(service[p].blocks, direct[p].blocks);
    EXPECT_EQ(service[p].bits, direct[p].bits);
    EXPECT_EQ(service[p].bit_errors, direct[p].bit_errors);
    EXPECT_EQ(service[p].block_errors, direct[p].block_errors);
    EXPECT_EQ(service[p].iterations_total, direct[p].iterations_total);
  }
}

TEST(HarnessAdapterTest, NocServiceRunEqualsDirectSweep) {
  SweepConfig cfg;
  cfg.patterns = {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose};
  cfg.injection_rates = {0.05, 0.2};
  cfg.fault_counts = {0, 2};
  cfg.retry_budgets = {3};
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 150;
  cfg.seed = 7;
  const std::vector<SweepPoint> direct = run_noc_sweep(cfg);
  const std::vector<SweepScenario> grid = cfg.scenarios();

  const SweepSpec spec = make_noc_sweep_spec(cfg);
  ASSERT_EQ(spec.enumerated, static_cast<std::int64_t>(direct.size()));
  const std::vector<ScenarioRecord> records =
      expect_service_identity(spec, "noc");
  ASSERT_EQ(records.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const SweepPoint got = noc_point_from_record(grid[i], records[i]);
    const SweepPoint& want = direct[i];
    EXPECT_EQ(got.scenario_index, want.scenario_index);
    EXPECT_EQ(got.messages_sent, want.messages_sent);
    EXPECT_EQ(got.messages_received, want.messages_received);
    EXPECT_EQ(got.messages_skipped, want.messages_skipped);
    EXPECT_EQ(got.packets_delivered, want.packets_delivered);
    EXPECT_EQ(got.flits_delivered, want.flits_delivered);
    EXPECT_EQ(got.offered_flit_rate, want.offered_flit_rate);
    EXPECT_EQ(got.injected_flit_rate, want.injected_flit_rate);
    EXPECT_EQ(got.accepted_flit_rate, want.accepted_flit_rate);
    EXPECT_EQ(got.avg_latency_cycles, want.avg_latency_cycles);
    EXPECT_EQ(got.max_latency_cycles, want.max_latency_cycles);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.packets_retried, want.packets_retried);
    EXPECT_EQ(got.packets_dropped, want.packets_dropped);
    EXPECT_EQ(got.packets_unreachable, want.packets_unreachable);
    EXPECT_EQ(got.duplicates_suppressed, want.duplicates_suppressed);
    EXPECT_EQ(got.route_epochs, want.route_epochs);
  }
}

TEST(HarnessAdapterTest, ExperimentServiceRunEqualsDirectSweep) {
  ExperimentSweepConfig cfg;
  cfg.schemes = {MigrationScheme::kNone, MigrationScheme::kRotation};
  cfg.periods_s = {109.3e-6};
  cfg.power_scales = {1.0, 1.25};
  cfg.refines = {1};
  cfg.thermal.min_orbits = 1;
  cfg.thermal.max_orbits = 2;
  cfg.thermal.tol_c = 0.5;
  cfg.seed = 1234;
  const std::vector<ExperimentSweepPoint> direct = run_experiment_sweep(cfg);
  const std::vector<ExperimentScenario> grid = cfg.scenarios();

  const SweepSpec spec = make_experiment_sweep_spec(cfg);
  ASSERT_EQ(spec.enumerated, static_cast<std::int64_t>(direct.size()));
  const std::vector<ScenarioRecord> records =
      expect_service_identity(spec, "experiment");
  ASSERT_EQ(records.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const ExperimentSweepPoint got =
        experiment_point_from_record(grid[i], records[i]);
    const ExperimentSweepPoint& want = direct[i];
    EXPECT_EQ(got.scenario_index, want.scenario_index);
    EXPECT_EQ(got.orbit_length, want.orbit_length);
    EXPECT_EQ(got.fine_nodes, want.fine_nodes);
    EXPECT_EQ(got.static_peak_c, want.static_peak_c);
    EXPECT_EQ(got.peak_temp_c, want.peak_temp_c);
    EXPECT_EQ(got.reduction_c, want.reduction_c);
    EXPECT_EQ(got.mean_temp_c, want.mean_temp_c);
    EXPECT_EQ(got.ripple_c, want.ripple_c);
    EXPECT_EQ(got.steady_peak_of_avg_c, want.steady_peak_of_avg_c);
    EXPECT_EQ(got.orbits_run, want.orbits_run);
    EXPECT_EQ(got.converged, want.converged);
  }
}

// --- checkpointing ---------------------------------------------------------

TEST(CheckpointTest, SegmentsRoundTripAndResumeRunsNothing) {
  const SweepSpec spec = toy_spec(10);
  const ScratchDir dir("roundtrip");
  ShardRunOptions opt;
  opt.checkpoint = dir.ckpt(/*every=*/3);
  const ShardRunResult first = run_sweep_shard(spec, opt);
  EXPECT_EQ(first.resumed, 0);
  // 10 scenarios at period 3: three full segments plus the tail flush.
  EXPECT_EQ(first.segments_written, 4);

  int segments = 0;
  const std::vector<ScenarioRecord> loaded =
      load_shard_checkpoints(spec, opt.checkpoint, opt.shard, &segments);
  EXPECT_EQ(segments, 4);
  EXPECT_TRUE(records_equal(first.records, loaded));

  // A rerun over complete checkpoints re-enumerates nothing.
  const ShardRunResult again = run_sweep_shard(spec, opt);
  EXPECT_EQ(again.resumed, 10);
  EXPECT_EQ(again.segments_written, 0);
  EXPECT_TRUE(records_equal(first.records, again.records));
}

TEST(CheckpointTest, KillAtEveryBoundaryResumesToIdenticalBits) {
  const SweepSpec spec = toy_spec(12);
  const std::vector<ScenarioRecord> baseline =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  // Kill after every possible number of completed scenarios (stop_after
  // abandons the run without the tail flush, exactly like a SIGKILL), then
  // resume to completion and demand bit-identity with the straight-through
  // run.
  for (std::int64_t stop = 0; stop <= 12; ++stop) {
    const ScratchDir dir("kill" + std::to_string(stop));
    ShardRunOptions killed;
    killed.checkpoint = dir.ckpt(/*every=*/2);
    killed.stop_after = stop;
    run_sweep_shard(spec, killed);

    ShardRunOptions resume;
    resume.checkpoint = killed.checkpoint;
    const ShardRunResult done = run_sweep_shard(spec, resume);
    EXPECT_EQ(done.resumed, (stop / 2) * 2) << stop;  // whole segments only
    EXPECT_TRUE(records_equal(baseline, done.records)) << stop;

    const MergeResult merged =
        merge_checkpoints(spec, resume.checkpoint, 1);
    EXPECT_TRUE(merged.counts.conserved());
    EXPECT_EQ(merged.counts.skipped, 0) << stop;
    EXPECT_TRUE(records_equal(baseline, merged.records)) << stop;
  }
}

TEST(CheckpointTest, ShardedKillAndResumeMergesToBaseline) {
  const SweepSpec spec = toy_spec(14);
  const std::vector<ScenarioRecord> baseline =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  const ScratchDir dir("shardkill");
  // Shard 1 of 2 dies mid-run; shard 0 completes. The rerun of shard 1
  // resumes from its segments and the merge is bit-identical.
  ShardRunOptions s0;
  s0.shard = Shard{0, 2};
  s0.checkpoint = dir.ckpt();
  run_sweep_shard(spec, s0);
  ShardRunOptions s1 = s0;
  s1.shard = Shard{1, 2};
  s1.stop_after = 3;
  run_sweep_shard(spec, s1);
  s1.stop_after = -1;
  const ShardRunResult resumed = run_sweep_shard(spec, s1);
  EXPECT_EQ(resumed.resumed, 2);  // one full segment of the killed run

  const MergeResult merged = merge_checkpoints(spec, dir.ckpt(), 2);
  EXPECT_TRUE(merged.counts.conserved());
  EXPECT_EQ(merged.counts.skipped, 0);
  EXPECT_TRUE(records_equal(baseline, merged.records));
}

// --- the validation ladder -------------------------------------------------

/// Writes a complete two-segment checkpoint store for the toy spec and
/// returns the paths of segments 0 and 1.
struct CorruptFixture {
  SweepSpec spec = toy_spec(8);
  ScratchDir dir;
  std::string seg0;
  std::string seg1;

  explicit CorruptFixture(const std::string& name) : dir(name) {
    ShardRunOptions opt;
    opt.checkpoint = dir.ckpt(/*every=*/4);
    run_sweep_shard(spec, opt);
    seg0 = checkpoint_segment_path(opt.checkpoint, opt.shard, 0);
    seg1 = checkpoint_segment_path(opt.checkpoint, opt.shard, 1);
    EXPECT_TRUE(fs::exists(seg0));
    EXPECT_TRUE(fs::exists(seg1));
  }

  std::string load_error() {
    return check_message([&] {
      load_shard_checkpoints(spec, dir.ckpt(4), Shard{}, nullptr);
    });
  }
};

TEST(CheckpointDefectTest, TruncatedFileIsNamed) {
  CorruptFixture fx("truncated");
  const std::string text = slurp(fx.seg1);
  spill(fx.seg1, text.substr(0, text.size() / 2));
  EXPECT_NE(fx.load_error().find("truncated or malformed"),
            std::string::npos);
}

TEST(CheckpointDefectTest, FlippedPayloadBitIsNamed) {
  CorruptFixture fx("bitflip");
  // Flip one hex digit of the first record's payload to another valid
  // digit: the JSON stays well formed, only the checksum can notice.
  std::string text = slurp(fx.seg0);
  const std::size_t key = text.find("\"words\": \"");
  ASSERT_NE(key, std::string::npos);
  const std::size_t digit = key + std::string("\"words\": \"").size();
  text[digit] = text[digit] == '7' ? '8' : '7';
  spill(fx.seg0, text);
  EXPECT_NE(fx.load_error().find("payload checksum mismatch"),
            std::string::npos);
}

TEST(CheckpointDefectTest, WrongSchemaVersionIsNamed) {
  CorruptFixture fx("version");
  patch_file(fx.seg0, "\"version\": 1", "\"version\": 2");
  EXPECT_NE(fx.load_error().find("unsupported checkpoint schema or version"),
            std::string::npos);
}

TEST(CheckpointDefectTest, OverlappingRangesAreNamed) {
  CorruptFixture fx("overlap");
  // Segment 1 claims the same scenarios segment 0 already covered.
  fs::copy_file(fx.seg0, fx.seg1, fs::copy_options::overwrite_existing);
  EXPECT_NE(fx.load_error().find("overlapping scenario ranges"),
            std::string::npos);
}

TEST(CheckpointDefectTest, StaleConfigIsNamed) {
  CorruptFixture fx("stale");
  // Same files, different sweep config (a new salt changes the digest):
  // resuming must refuse, not silently merge results of the old config.
  fx.spec = toy_spec(8, 3, /*salt=*/43);
  EXPECT_NE(fx.load_error().find("config digest mismatch"),
            std::string::npos);
}

TEST(CheckpointDefectTest, WrongShardGeometryIsNamed) {
  CorruptFixture fx("geometry");
  // A 1-shard segment masquerading under a 2-shard path: the embedded
  // geometry gives it away.
  CheckpointConfig two = fx.dir.ckpt(4);
  fs::copy_file(fx.seg0, checkpoint_segment_path(two, Shard{0, 2}, 0),
                fs::copy_options::overwrite_existing);
  const std::string message = check_message([&] {
    load_shard_checkpoints(fx.spec, two, Shard{0, 2}, nullptr);
  });
  EXPECT_NE(message.find("shard geometry or record shape mismatch"),
            std::string::npos);
}

TEST(CheckpointDefectTest, MalformedRecordIsNamed) {
  CorruptFixture fx("record");
  patch_file(fx.seg0, "\"outcome\": \"completed\"",
             "\"outcome\": \"exploded\"");
  EXPECT_NE(fx.load_error().find("malformed checkpoint record"),
            std::string::npos);
}

TEST(CheckpointDefectTest, OutOfRangeIntegerIsNamed) {
  CorruptFixture fx("bigint");
  // The parser holds numbers as doubles; 1e20 fits no long long, so the
  // loader must reject it by name before converting it.
  patch_file(fx.seg0, "\"scenario_min\": 0",
             "\"scenario_min\": 99999999999999999999");
  const std::string message = fx.load_error();
  EXPECT_NE(message.find("integer 'scenario_min' out of range"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(fx.seg0), std::string::npos) << message;
}

// --- conservation and failure capture --------------------------------------

/// Toy spec whose runner throws on every third scenario.
SweepSpec faulty_spec(std::int64_t enumerated) {
  SweepSpec spec = toy_spec(enumerated, 2, /*salt=*/5);
  spec.make_runner = [] {
    return [](std::int64_t scenario, std::uint64_t* out) {
      RENOC_CHECK_MSG(scenario % 3 != 0, "scenario " << scenario << " died");
      Rng rng = scenario_rng(5, scenario);
      out[0] = rng.next_u64();
      out[1] = rng.next_u64();
    };
  };
  return spec;
}

TEST(ConservationTest, CapturedFailuresCountAsFailedNotSkipped) {
  const SweepSpec spec = faulty_spec(10);
  ShardRunOptions opt;
  opt.capture_failures = true;
  const ShardRunResult run = run_sweep_shard(spec, opt);
  const MergeResult merged = merge_shard_records(10, {run.records});
  EXPECT_TRUE(merged.counts.conserved());
  EXPECT_EQ(merged.counts.failed, 4);     // scenarios 0, 3, 6, 9
  EXPECT_EQ(merged.counts.completed, 6);
  EXPECT_EQ(merged.counts.skipped, 0);
  EXPECT_EQ(merged.incomplete,
            (std::vector<std::int64_t>{0, 3, 6, 9}));
  for (const ScenarioRecord& rec : merged.records) {
    if (rec.outcome == Outcome::kFailed) {
      EXPECT_TRUE(rec.words.empty());
    }
  }
}

TEST(ConservationTest, UncapturedFailureRethrows) {
  const SweepSpec spec = faulty_spec(10);
  EXPECT_THROW(run_sweep_shard(spec, ShardRunOptions{}), CheckError);
}

TEST(ConservationTest, MissingShardMaterializesAsSkipped) {
  const SweepSpec spec = toy_spec(9);
  ShardRunOptions opt;
  opt.shard = Shard{0, 3};
  const ShardRunResult only = run_sweep_shard(spec, opt);
  const MergeResult merged = merge_shard_records(9, {only.records});
  EXPECT_TRUE(merged.counts.conserved());
  EXPECT_EQ(merged.counts.completed, 3);  // scenarios 0, 3, 6
  EXPECT_EQ(merged.counts.skipped, 6);
  EXPECT_EQ(merged.incomplete,
            (std::vector<std::int64_t>{1, 2, 4, 5, 7, 8}));
}

TEST(ConservationTest, DuplicateScenarioIsAnOverlapError) {
  const SweepSpec spec = toy_spec(5);
  const std::vector<ScenarioRecord> records =
      run_sweep_shard(spec, ShardRunOptions{}).records;
  const std::string message = check_message(
      [&] { merge_shard_records(5, {records, records}); });
  EXPECT_NE(message.find("overlapping scenario ranges"), std::string::npos);
}

// --- atomic publication ----------------------------------------------------

TEST(AtomicWriteTest, PublishesWholeFilesAndLeavesNoTemp) {
  const ScratchDir dir("atomic");
  fs::create_directories(dir.path);
  const std::string path = (dir.path / "artifact.json").string();
  write_file_atomic(path, "first");
  EXPECT_EQ(slurp(path), "first");
  write_file_atomic(path, "second");  // atomic replace of an existing file
  EXPECT_EQ(slurp(path), "second");
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // no .tmp litter
}

TEST(AtomicWriteTest, UncommittedAtomicFileLeavesTargetUntouched) {
  const ScratchDir dir("uncommitted");
  fs::create_directories(dir.path);
  const std::string path = (dir.path / "artifact.json").string();
  write_file_atomic(path, "golden");
  {
    AtomicFile file(path);
    file.stream() << "half-written garbage";
    // No commit: destructor must discard, not publish.
  }
  EXPECT_EQ(slurp(path), "golden");
  AtomicFile file(path);
  file.stream() << "replacement";
  file.commit();
  EXPECT_EQ(slurp(path), "replacement");
  EXPECT_THROW(file.commit(), CheckError);  // commit is once
}

TEST(AtomicWriteTest, WriteJsonAtomicEmitsParseableDocument) {
  const ScratchDir dir("jsonatomic");
  fs::create_directories(dir.path);
  const std::string path = (dir.path / "doc.json").string();
  write_json_atomic(path, [](JsonWriter& w) {
    w.begin_object();
    w.key("answer").integer(42);
    w.end_object();
  });
  const JsonValue doc = parse_json_file(path);
  ASSERT_NE(doc.find("answer"), nullptr);
  EXPECT_EQ(doc.find("answer")->num_v, 42.0);
}

}  // namespace
}  // namespace renoc::sweep
