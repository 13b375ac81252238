// util/sweep tests: the in-process scenario loop's contract.
//
// Two clusters:
//   * indexing/RNG/boilerplate — decode/encode round trips on every
//     harness's axis shape, enumeration-order equality with nested loops,
//     the stateless per-scenario stream every harness draws from, and the
//     pinned shared validation messages all three harnesses emit;
//   * the scenario loop — run_scenarios runs every index exactly once on
//     any thread count, hands each worker an index into per-worker state,
//     runs inline on one worker, and stops claiming after the first
//     failure, which it rethrows. The harnesses' 1/2/4/7-thread invariance
//     suites (ber_harness_test, noc_flat_test, noc_fault_test,
//     experiment_sweep_test) hold their typed results to the same loop.
#include "util/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment_sweep.hpp"
#include "ldpc/ber_harness.hpp"
#include "noc/sweep_harness.hpp"
#include "support/helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc::sweep {
namespace {

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

// --- the scenario loop -----------------------------------------------------

TEST(RunScenariosTest, EveryIndexRunsExactlyOnceAtAnyThreadCount) {
  // Each scenario writes the first draw of its own stream into its slot;
  // the slots must match the serial run and every index must run once, on
  // a worker index below the worker count.
  const std::int64_t count = 23;
  std::vector<std::uint64_t> serial(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i)
    serial[static_cast<std::size_t>(i)] = scenario_rng(42, i).next_u64();
  for (const int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const int workers = clamp_workers(threads, count);
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(count));
    std::vector<std::uint64_t> slots(static_cast<std::size_t>(count));
    std::atomic<bool> worker_in_range{true};
    run_scenarios(count, threads, [&](int worker, std::int64_t scenario) {
      if (worker < 0 || worker >= workers) worker_in_range = false;
      runs[static_cast<std::size_t>(scenario)].fetch_add(1);
      slots[static_cast<std::size_t>(scenario)] =
          scenario_rng(42, scenario).next_u64();
    });
    EXPECT_TRUE(worker_in_range);
    for (std::int64_t i = 0; i < count; ++i)
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << i;
    EXPECT_EQ(slots, serial);
  }
}

TEST(RunScenariosTest, OneWorkerRunsInlineInAscendingOrder) {
  // One thread, or one scenario on many threads: a single worker, on the
  // calling thread, claiming indices in ascending order.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [count, threads] :
       {std::pair<std::int64_t, int>{6, 1}, std::pair<std::int64_t, int>{1, 4}}) {
    std::vector<std::int64_t> order;
    bool inline_worker = true;
    run_scenarios(count, threads, [&](int worker, std::int64_t scenario) {
      inline_worker = inline_worker && worker == 0 &&
                      std::this_thread::get_id() == caller;
      order.push_back(scenario);
    });
    EXPECT_TRUE(inline_worker) << count << " on " << threads;
    std::vector<std::int64_t> want;
    for (std::int64_t i = 0; i < count; ++i) want.push_back(i);
    EXPECT_EQ(order, want);
  }
  // No scenarios: the body never runs.
  bool ran = false;
  run_scenarios(0, 4, [&](int, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(RunScenariosTest, FirstFailureStopsClaimsAndRethrows) {
  // At one thread, no index after the one that throws runs.
  std::vector<std::int64_t> ran;
  const std::string message = check_message([&] {
    run_scenarios(10, 1, [&](int, std::int64_t scenario) {
      ran.push_back(scenario);
      RENOC_CHECK_MSG(scenario != 3, "scenario " << scenario << " died");
    });
  });
  EXPECT_NE(message.find("scenario 3 died"), std::string::npos) << message;
  EXPECT_EQ(ran, (std::vector<std::int64_t>{0, 1, 2, 3}));
  // On several threads the failure still reaches the caller after the join.
  for (const int threads : {2, 4, 7}) {
    EXPECT_THROW(run_scenarios(50, threads,
                               [](int, std::int64_t scenario) {
                                 RENOC_CHECK_MSG(scenario % 3 != 0,
                                                 "scenario " << scenario
                                                             << " died");
                               }),
                 CheckError)
        << threads;
  }
}

}  // namespace
}  // namespace renoc::sweep
