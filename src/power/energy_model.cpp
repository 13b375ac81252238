#include "power/energy_model.hpp"

#include "util/check.hpp"

namespace renoc {

void EnergyParams::validate() const {
  RENOC_CHECK(e_buffer_write >= 0 && e_buffer_read >= 0 && e_crossbar >= 0);
  RENOC_CHECK(e_arbitration >= 0 && e_link >= 0 && e_pe_op >= 0);
  RENOC_CHECK(e_state_word >= 0 && p_leak_tile >= 0);
}

EnergyModel::EnergyModel(const EnergyParams& params) : params_(params) {
  params_.validate();
}

double EnergyModel::tile_dynamic_energy(const TileActivity& a) const {
  const EnergyParams& p = params_;
  double e = 0.0;
  e += p.e_buffer_write * static_cast<double>(a.buffer_writes);
  e += p.e_buffer_read * static_cast<double>(a.buffer_reads);
  e += p.e_crossbar * static_cast<double>(a.crossbar_traversals);
  e += p.e_arbitration * static_cast<double>(a.arbitrations);
  e += p.e_link * static_cast<double>(a.link_flits);
  e += p.e_pe_op * static_cast<double>(a.pe_compute_ops);
  e += p.e_state_word * static_cast<double>(a.pe_state_words);
  return e;
}

std::vector<double> EnergyModel::power_map(const NetworkStats& stats,
                                           double window_seconds,
                                           double scale) const {
  RENOC_CHECK(window_seconds > 0 && scale > 0);
  std::vector<double> map(static_cast<std::size_t>(stats.node_count()));
  for (int i = 0; i < stats.node_count(); ++i) {
    map[static_cast<std::size_t>(i)] =
        scale * (tile_dynamic_energy(stats.tile(i)) / window_seconds +
                 params_.p_leak_tile);
  }
  return map;
}

}  // namespace renoc
