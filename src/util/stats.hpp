// Streaming summary statistics (the running-mean update of Welford's
// method, plus min and max) used by the NoC latency counters.
#pragma once

#include <cstddef>
#include <limits>

namespace renoc {

/// Accumulates count/mean/min/max of a stream of doubles.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace renoc
