#include "support/helpers.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "noc/routing.hpp"
#include "util/check.hpp"

namespace renoc {

std::vector<double> expand_die_power(const RcNetwork& net,
                                     const std::vector<double>& die_power) {
  RENOC_CHECK_MSG(static_cast<int>(die_power.size()) == net.die_count(),
                  "power vector size " << die_power.size()
                                       << " != die count " << net.die_count());
  std::vector<double> full(static_cast<std::size_t>(net.node_count()), 0.0);
  std::copy(die_power.begin(), die_power.end(), full.begin());
  return full;
}

Partition make_interleaved_partition(const LdpcCode& code, int clusters) {
  RENOC_CHECK(clusters > 0);
  Partition p;
  p.cluster_count = clusters;
  p.vn_owner.resize(static_cast<std::size_t>(code.n()));
  p.cn_owner.resize(static_cast<std::size_t>(code.m()));
  for (int v = 0; v < code.n(); ++v)
    p.vn_owner[static_cast<std::size_t>(v)] = v % clusters;
  for (int c = 0; c < code.m(); ++c)
    p.cn_owner[static_cast<std::size_t>(c)] = c % clusters;
  p.validate(code);
  return p;
}

bool phase_is_link_disjoint(const MigrationPhase& phase, const GridDim& dim) {
  std::set<std::pair<int, int>> used;
  for (const MigrationMove& mv : phase.moves) {
    const std::vector<int> path =
        xy_path(index_to_coord(mv.src_tile, dim),
                index_to_coord(mv.dst_tile, dim), dim);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      if (!used.emplace(path[i], path[i + 1]).second) return false;
  }
  return true;
}

namespace sweep {

std::int64_t encode_scenario_index(const std::vector<std::int64_t>& digits,
                                   const std::vector<std::int64_t>& shape) {
  RENOC_CHECK_MSG(digits.size() == shape.size(),
                  "digit count " << digits.size() << " != axis count "
                                 << shape.size());
  std::int64_t index = 0;
  for (std::size_t k = 0; k < shape.size(); ++k) {
    RENOC_CHECK_MSG(digits[k] >= 0 && digits[k] < shape[k],
                    "digit " << digits[k] << " outside axis " << k
                             << " of size " << shape[k]);
    index = index * shape[k] + digits[k];
  }
  return index;
}

}  // namespace sweep
}  // namespace renoc
