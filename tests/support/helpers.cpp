#include "support/helpers.hpp"

#include <algorithm>
#include <set>
#include <string>
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

std::string sweep_point_diff(const SweepPoint& a, const SweepPoint& b) {
  std::string out;
  const auto field = [&out](bool same, const char* name) {
    if (same) return;
    if (!out.empty()) out += ", ";
    out += name;
  };
  const SweepScenario& sa = a.scenario;
  const SweepScenario& sb = b.scenario;
  field(sa.pattern == sb.pattern, "scenario.pattern");
  field(sa.dim == sb.dim, "scenario.dim");
  field(sa.injection_rate == sb.injection_rate, "scenario.injection_rate");
  field(sa.message_words == sb.message_words, "scenario.message_words");
  field(sa.burst.enabled == sb.burst.enabled &&
            sa.burst.p_on_to_off == sb.burst.p_on_to_off &&
            sa.burst.p_off_to_on == sb.burst.p_off_to_on,
        "scenario.burst");
  field(sa.hotspot == sb.hotspot, "scenario.hotspot");
  field(sa.fault_count == sb.fault_count, "scenario.fault_count");
  field(sa.fault_kind == sb.fault_kind, "scenario.fault_kind");
  field(sa.retry_budget == sb.retry_budget, "scenario.retry_budget");
  field(a.scenario_index == b.scenario_index, "scenario_index");
  field(a.messages_sent == b.messages_sent, "messages_sent");
  field(a.messages_received == b.messages_received, "messages_received");
  field(a.messages_skipped == b.messages_skipped, "messages_skipped");
  field(a.packets_delivered == b.packets_delivered, "packets_delivered");
  field(a.flits_delivered == b.flits_delivered, "flits_delivered");
  field(a.offered_flit_rate == b.offered_flit_rate, "offered_flit_rate");
  field(a.injected_flit_rate == b.injected_flit_rate, "injected_flit_rate");
  field(a.accepted_flit_rate == b.accepted_flit_rate, "accepted_flit_rate");
  field(a.avg_latency_cycles == b.avg_latency_cycles, "avg_latency_cycles");
  field(a.max_latency_cycles == b.max_latency_cycles, "max_latency_cycles");
  field(a.cycles == b.cycles, "cycles");
  field(a.packets_retried == b.packets_retried, "packets_retried");
  field(a.packets_dropped == b.packets_dropped, "packets_dropped");
  field(a.packets_unreachable == b.packets_unreachable,
        "packets_unreachable");
  field(a.duplicates_suppressed == b.duplicates_suppressed,
        "duplicates_suppressed");
  field(a.route_epochs == b.route_epochs, "route_epochs");
  return out;
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
