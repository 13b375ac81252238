// Streaming summary statistics (Welford) used by the NoC latency/throughput
// counters and the experiment harnesses.
#pragma once

#include <cstddef>
#include <limits>

namespace renoc {

/// Accumulates count/mean/variance/min/max of a stream of doubles.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace renoc
