// The one in-process scenario loop behind the repo's three Monte-Carlo/
// scenario harnesses (ldpc/ber_harness, noc/sweep_harness,
// core/experiment_sweep). Each harness sizes a typed result vector, and
// run_scenarios() runs one scenario per index into its slot. The contract:
//
//   * scenario indexing — decode_scenario_index maps a flat index to
//     row-major axis digits (outermost axis first, last axis fastest), the
//     exact order every harness's nested loops enumerate; any cell is
//     reachable in O(1) without walking the grid before it;
//   * stateless RNG — scenario_rng(seed, i) is the shared
//     derive_stream_seed idiom, so a scenario's stream never depends on
//     which worker runs it;
//   * one writer per slot — each scenario is run end to end by exactly one
//     worker into its own result slot, and no cross-scenario state exists,
//     so a harness's results are bit-identical for any thread count and
//     any single scenario replays in isolation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace renoc::sweep {

// ---------------------------------------------------------------------------
// Scenario indexing
// ---------------------------------------------------------------------------

/// Number of scenarios a row-major axis shape enumerates (product of the
/// axis sizes). Every axis must be >= 1; the product must fit int64.
std::int64_t axis_product(const std::vector<std::int64_t>& shape);

/// Decodes flat `index` into per-axis digits, row-major with the LAST axis
/// fastest — the order of every harness's nested loops (outermost loop =
/// first axis). `digits` is caller-owned and resized to shape.size(), so a
/// worker loop decodes with zero allocations after the first call.
void decode_scenario_index(std::int64_t index,
                           const std::vector<std::int64_t>& shape,
                           std::vector<std::int64_t>& digits);

// ---------------------------------------------------------------------------
// Stateless per-scenario RNG
// ---------------------------------------------------------------------------

/// The RNG stream scenario `scenario_index` uses: a stateless SplitMix64
/// derivation from (seed, index), shared by all three harnesses. O(1), so
/// any scenario replays in isolation. Chain derive_stream_seed to fold
/// more coordinates (ber_block_rng folds point then block).
Rng scenario_rng(std::uint64_t seed, std::int64_t scenario_index);

// ---------------------------------------------------------------------------
// Config validation (shared by the harnesses) and worker count
// ---------------------------------------------------------------------------

/// Axis non-emptiness check with the pinned shared message
/// "sweep needs at least one <axis>".
void require_axis(bool non_empty, const char* axis);

/// Thread-count check with the pinned shared message
/// "sweep threads must be >= 1, got <threads>".
void require_threads(int threads);

/// Workers actually spawned for `jobs` jobs: min(threads, jobs), at least 1.
int clamp_workers(int threads, std::int64_t jobs);

// ---------------------------------------------------------------------------
// The scenario loop
// ---------------------------------------------------------------------------

/// Runs body(worker, scenario) once for every scenario in [0, count) on
/// clamp_workers(threads, count) workers, inline on the calling thread
/// when that is one. Workers claim indices in ascending order from one
/// shared cursor; `worker` is in [0, clamp_workers(threads, count)), so a
/// caller can index per-worker state (decoders, scratch) built before the
/// call. The first exception stops further claims and is rethrown once
/// every worker has joined.
void run_scenarios(std::int64_t count, int threads,
                   const std::function<void(int, std::int64_t)>& body);

}  // namespace renoc::sweep
