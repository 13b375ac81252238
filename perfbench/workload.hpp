// The benchmark's workloads behind one interface.
//
// Every workload is a closed loop from one caller: a pass issues the
// workload's fixed work through the library's public entry points and
// returns only when all of it has completed. Each workload exists twice:
//
//   * untraced — the way a user calls the library (run_stream,
//     ExperimentDriver, run_noc_sweep); this is what the end-to-end
//     metrics time;
//   * traced — the same computation composed by the benchmark from the
//     public calls those entry points make, with a span around each call.
//
// The harness checks that both produce the same simulated results, so the
// per-layer split describes the program the end-to-end metrics measured.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one pass produced, for the correctness gate and the metrics.
struct PassResult {
  std::uint64_t sim_cycles = 0;  ///< simulated fabric cycles in the pass
  int attempted = 0;             ///< operations issued
  int failed = 0;                ///< operations whose output was wrong
  /// Simulated integers (cycles, flits, counts). They must repeat exactly
  /// between passes and between the traced and untraced programs.
  std::vector<std::uint64_t> ints;
  /// Simulated reals (temperatures, rates). Between the traced and
  /// untraced programs they must agree within the util/json golden
  /// tolerance, max(1e-6, 5e-4 * |value|).
  std::vector<double> reals;
  /// Accuracy against the paper, by name, e.g. "fig1_err_c".
  std::map<std::string, double> accuracy;
  /// Simulated per-layer counts (traced passes only), by metric name.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construction before the first timed call; may run repeatedly, each
  /// call replacing the previous state.
  virtual void setup() = 0;
  virtual PassResult run_pass() = 0;

  /// The untraced program the traced one is compared with; the same as
  /// run_pass() unless the workload fans out over threads.
  virtual PassResult run_serial_pass() { return run_pass(); }
  virtual int threads() const { return 1; }

  virtual void setup_traced(Tracer& tracer) = 0;
  virtual PassResult run_pass_traced(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_stream_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_study_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_noc_load_workload(std::uint64_t seed);

}  // namespace perfbench
