// Shared timing helper for the self-timing benches. One definition so
// every BENCH_*.json record is measured with the same methodology.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>

namespace renoc::bench {

/// Best-of-N wall time of op() in milliseconds: repeats until the budget is
/// spent (at least twice), reporting the fastest run.
inline double time_ms(double budget_ms, const std::function<void()>& op) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  double spent = 0.0;
  int reps = 0;
  while (reps < 2 || spent < budget_ms) {
    const auto t0 = clock::now();
    op();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
    spent += ms;
    ++reps;
  }
  return best;
}

}  // namespace renoc::bench
