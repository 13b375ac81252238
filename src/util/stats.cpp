#include "util/stats.hpp"

#include <algorithm>

namespace renoc {

void RunningStats::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

}  // namespace renoc
