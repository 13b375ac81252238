#include "power/power_map.hpp"

#include "util/check.hpp"

namespace renoc {

void check_permutation(const std::vector<int>& perm) {
  std::vector<char> seen(perm.size(), 0);
  for (int p : perm) {
    RENOC_CHECK_MSG(p >= 0 && p < static_cast<int>(perm.size()),
                    "permutation entry " << p << " out of range");
    RENOC_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                    "permutation repeats entry " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

std::vector<double> apply_permutation(const std::vector<double>& power,
                                      const std::vector<int>& perm) {
  std::vector<double> out;
  apply_permutation_into(power, perm, out);
  return out;
}

void apply_permutation_into(const std::vector<double>& power,
                            const std::vector<int>& perm,
                            std::vector<double>& out) {
  RENOC_CHECK(power.size() == perm.size());
  RENOC_CHECK_MSG(&power != &out, "power and output must be distinct");
  check_permutation(perm);
  out.resize(power.size());
  for (std::size_t i = 0; i < power.size(); ++i)
    out[static_cast<std::size_t>(perm[i])] = power[i];
}

std::vector<double> average_maps(
    const std::vector<std::vector<double>>& maps) {
  RENOC_CHECK(!maps.empty());
  std::vector<double> avg(maps.front().size(), 0.0);
  for (const auto& m : maps) {
    RENOC_CHECK(m.size() == avg.size());
    for (std::size_t i = 0; i < m.size(); ++i) avg[i] += m[i];
  }
  const double inv = 1.0 / static_cast<double>(maps.size());
  for (double& v : avg) v *= inv;
  return avg;
}

double total_power(const std::vector<double>& map) {
  double s = 0.0;
  for (double v : map) s += v;
  return s;
}

void scale_map(std::vector<double>& map, double s) {
  for (double& v : map) v *= s;
}

}  // namespace renoc
