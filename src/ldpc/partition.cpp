#include "ldpc/partition.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace renoc {

void Partition::validate(const LdpcCode& code) const {
  RENOC_CHECK(cluster_count > 0);
  RENOC_CHECK(static_cast<int>(vn_owner.size()) == code.n());
  RENOC_CHECK(static_cast<int>(cn_owner.size()) == code.m());
  for (int o : vn_owner) RENOC_CHECK(o >= 0 && o < cluster_count);
  for (int o : cn_owner) RENOC_CHECK(o >= 0 && o < cluster_count);
}

std::vector<int> apportion(int total, const std::vector<double>& weights) {
  RENOC_CHECK(total >= 0 && !weights.empty());
  double sum = 0.0;
  for (double w : weights) {
    RENOC_CHECK_MSG(w >= 0.0, "negative weight " << w);
    sum += w;
  }
  RENOC_CHECK_MSG(sum > 0.0, "weights sum to zero");

  const std::size_t k = weights.size();
  std::vector<int> counts(k, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double exact = total * weights[i] / sum;
    counts[i] = static_cast<int>(exact);  // floor for non-negative
    assigned += counts[i];
    remainders.push_back({exact - counts[i], i});
  }
  // Distribute the leftover to the largest fractional parts (stable
  // tie-break by index for determinism).
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  const int leftover = total - assigned;
  RENOC_CHECK(leftover >= 0 && leftover <= static_cast<int>(k));
  for (int i = 0; i < leftover; ++i)
    ++counts[remainders[static_cast<std::size_t>(i)].second];
  RENOC_CHECK(std::accumulate(counts.begin(), counts.end(), 0) == total);
  return counts;
}

namespace {

std::vector<int> striped_owners(int total, const std::vector<int>& counts) {
  std::vector<int> owner(static_cast<std::size_t>(total));
  int pos = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    for (int i = 0; i < counts[c]; ++i)
      owner[static_cast<std::size_t>(pos++)] = static_cast<int>(c);
  }
  RENOC_CHECK(pos == total);
  return owner;
}

}  // namespace

Partition make_weighted_partition(const LdpcCode& code,
                                  const std::vector<double>& vn_weights,
                                  const std::vector<double>& cn_weights) {
  RENOC_CHECK(vn_weights.size() == cn_weights.size());
  Partition p;
  p.cluster_count = static_cast<int>(vn_weights.size());
  p.vn_owner = striped_owners(code.n(), apportion(code.n(), vn_weights));
  p.cn_owner = striped_owners(code.m(), apportion(code.m(), cn_weights));
  p.validate(code);
  return p;
}

Partition make_striped_partition(const LdpcCode& code, int clusters) {
  RENOC_CHECK(clusters > 0);
  const std::vector<double> w(static_cast<std::size_t>(clusters), 1.0);
  return make_weighted_partition(code, w, w);
}

std::vector<std::uint64_t> cluster_edge_ops(const LdpcCode& code,
                                            const Partition& p) {
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(p.cluster_count), 0);
  for (int v = 0; v < code.n(); ++v)
    ops[static_cast<std::size_t>(p.vn_owner[static_cast<std::size_t>(v)])] +=
        static_cast<std::uint64_t>(code.var_degree(v));
  for (int c = 0; c < code.m(); ++c)
    ops[static_cast<std::size_t>(p.cn_owner[static_cast<std::size_t>(c)])] +=
        static_cast<std::uint64_t>(code.check_degree(c));
  return ops;
}

std::vector<std::vector<std::uint64_t>> cluster_traffic(const LdpcCode& code,
                                                        const Partition& p) {
  std::vector<std::vector<std::uint64_t>> traffic(
      static_cast<std::size_t>(p.cluster_count),
      std::vector<std::uint64_t>(static_cast<std::size_t>(p.cluster_count),
                                 0));
  for (int c = 0; c < code.m(); ++c) {
    const int co = p.cn_owner[static_cast<std::size_t>(c)];
    for (const TannerEdge& e : code.check_edges(c)) {
      const int vo = p.vn_owner[static_cast<std::size_t>(e.other)];
      if (vo == co) continue;
      // One value VN->CN and one CN->VN per edge per iteration.
      ++traffic[static_cast<std::size_t>(vo)][static_cast<std::size_t>(co)];
      ++traffic[static_cast<std::size_t>(co)][static_cast<std::size_t>(vo)];
    }
  }
  return traffic;
}

}  // namespace renoc
