#include "mapping/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace renoc {

ThermalAwarePlacer::ThermalAwarePlacer(const SteadyStateSolver& solver,
                                       const GridDim& dim,
                                       PlacerOptions options)
    : solver_(&solver), dim_(dim), options_(options) {
  RENOC_CHECK(dim.node_count() > 0);
  RENOC_CHECK_MSG(solver.network().die_count() == dim.node_count(),
                  "thermal network die count "
                      << solver.network().die_count()
                      << " != tile count " << dim.node_count());
  RENOC_CHECK(options_.iterations >= 0);
  RENOC_CHECK(options_.temp_start >= options_.temp_end &&
              options_.temp_end > 0);
  RENOC_CHECK(options_.comm_weight >= 0);
}

std::vector<double> ThermalAwarePlacer::tile_power_of(
    const std::vector<int>& placement,
    const std::vector<double>& cluster_power) const {
  RENOC_CHECK_MSG(placement.size() == cluster_power.size(),
                  "placement covers " << placement.size() << " clusters, "
                                      << "power " << cluster_power.size());
  std::vector<double> tile_power(
      static_cast<std::size_t>(dim_.node_count()), 0.0);
  for (std::size_t c = 0; c < cluster_power.size(); ++c) {
    const int tile = placement[c];
    RENOC_CHECK(tile >= 0 && tile < dim_.node_count());
    tile_power[static_cast<std::size_t>(tile)] += cluster_power[c];
  }
  return tile_power;
}

double ThermalAwarePlacer::comm_cost_of(
    const std::vector<int>& placement,
    const std::vector<std::vector<std::uint64_t>>& traffic) const {
  RENOC_CHECK_MSG(traffic.size() == placement.size(),
                  "traffic has " << traffic.size() << " rows for "
                                 << placement.size() << " clusters");
  double cost = 0.0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    RENOC_CHECK_MSG(traffic[i].size() == placement.size(),
                    "traffic row " << i << " has " << traffic[i].size()
                                   << " entries for " << placement.size()
                                   << " clusters");
    for (std::size_t j = 0; j < traffic[i].size(); ++j) {
      if (traffic[i][j] == 0) continue;
      const GridCoord a = index_to_coord(placement[i], dim_);
      const GridCoord b = index_to_coord(placement[j], dim_);
      cost += static_cast<double>(traffic[i][j]) * manhattan(a, b);
    }
  }
  return cost;
}

double ThermalAwarePlacer::peak_temperature_of(
    const std::vector<int>& placement,
    const std::vector<double>& cluster_power) const {
  return solver_->peak_die_temperature(
      tile_power_of(placement, cluster_power));
}

PlacementResult ThermalAwarePlacer::place(
    const std::vector<double>& cluster_power,
    const std::vector<std::vector<std::uint64_t>>& traffic,
    const std::vector<Pin>& pins) const {
  const int tiles = dim_.node_count();
  const int clusters = static_cast<int>(cluster_power.size());
  RENOC_CHECK_MSG(clusters <= tiles, "more clusters than tiles");
  RENOC_CHECK(static_cast<int>(traffic.size()) == clusters);
  const auto ut = static_cast<std::size_t>(tiles);
  const auto uc = static_cast<std::size_t>(clusters);

  // Exactness bound: sum(traffic) * max hops < 2^53, so every partial sum
  // of comm_cost_of's double loop is an exact integer. Checked without
  // forming the product (a 1-tile mesh counts as one hop).
  constexpr std::uint64_t kExactDoubleLimit = std::uint64_t{1} << 53;
  const std::uint64_t max_hops =
      static_cast<std::uint64_t>(std::max(1, dim_.width + dim_.height - 2));
  const std::uint64_t traffic_budget = (kExactDoubleLimit - 1) / max_hops;
  std::uint64_t traffic_sum = 0;
  for (std::size_t i = 0; i < uc; ++i) {
    RENOC_CHECK_MSG(traffic[i].size() == uc,
                    "traffic row " << i << " has " << traffic[i].size()
                                   << " entries for " << clusters
                                   << " clusters");
    for (const std::uint64_t v : traffic[i]) {
      RENOC_CHECK_MSG(v <= traffic_budget - traffic_sum,
                      "total traffic times " << max_hops
                                             << " hops reaches 2^53");
      traffic_sum += v;
    }
  }

  Rng rng(options_.seed);

  // Identity start: cluster i on tile i (unused tiles stay power-free).
  // The swap space is over all tiles so clusters can move into initially
  // unused positions. Pins are applied by swapping their clusters into
  // position first; pinned clusters and their tiles are then frozen.
  std::vector<int> placement(static_cast<std::size_t>(clusters));
  std::iota(placement.begin(), placement.end(), 0);

  std::vector<char> cluster_pinned(static_cast<std::size_t>(clusters), 0);
  std::vector<char> tile_pinned(static_cast<std::size_t>(tiles), 0);
  {
    // occupant[tile] = cluster currently there (-1 free), to run the
    // pin-installing swaps.
    std::vector<int> occ(static_cast<std::size_t>(tiles), -1);
    for (int c = 0; c < clusters; ++c)
      occ[static_cast<std::size_t>(placement[static_cast<std::size_t>(c)])] =
          c;
    for (const Pin& pin : pins) {
      RENOC_CHECK_MSG(pin.cluster >= 0 && pin.cluster < clusters,
                      "pin cluster " << pin.cluster << " out of range");
      RENOC_CHECK_MSG(pin.tile >= 0 && pin.tile < tiles,
                      "pin tile " << pin.tile << " out of range");
      RENOC_CHECK_MSG(!cluster_pinned[static_cast<std::size_t>(pin.cluster)],
                      "cluster " << pin.cluster << " pinned twice");
      RENOC_CHECK_MSG(!tile_pinned[static_cast<std::size_t>(pin.tile)],
                      "tile " << pin.tile << " pinned twice");
      const int cur_tile = placement[static_cast<std::size_t>(pin.cluster)];
      const int evictee = occ[static_cast<std::size_t>(pin.tile)];
      placement[static_cast<std::size_t>(pin.cluster)] = pin.tile;
      occ[static_cast<std::size_t>(pin.tile)] = pin.cluster;
      occ[static_cast<std::size_t>(cur_tile)] = evictee;
      if (evictee >= 0 && evictee != pin.cluster)
        placement[static_cast<std::size_t>(evictee)] = cur_tile;
      cluster_pinned[static_cast<std::size_t>(pin.cluster)] = 1;
      tile_pinned[static_cast<std::size_t>(pin.tile)] = 1;
    }
  }
  std::vector<int> movable;
  for (int c = 0; c < clusters; ++c)
    if (!cluster_pinned[static_cast<std::size_t>(c)]) movable.push_back(c);
  std::vector<int> free_tiles;
  for (int t = 0; t < tiles; ++t)
    if (!tile_pinned[static_cast<std::size_t>(t)]) free_tiles.push_back(t);

  // The objective is kept incrementally and stays equal to the full
  // recompute bit for bit. hops[a * tiles + b] is the XY hop count between
  // tiles a and b.
  // pair[i * clusters + k] = traffic[i][k] + traffic[k][i], so a swap
  // re-prices only its two clusters' rows; row `clusters` is all zero and
  // stands in for the occupant of an empty tile.
  std::vector<std::uint64_t> hops(ut * ut);
  for (int a = 0; a < tiles; ++a)
    for (int b = 0; b < tiles; ++b)
      hops[static_cast<std::size_t>(a) * ut + static_cast<std::size_t>(b)] =
          static_cast<std::uint64_t>(manhattan(index_to_coord(a, dim_),
                                               index_to_coord(b, dim_)));
  std::vector<std::uint64_t> pair((uc + 1) * uc, 0);
  std::uint64_t comm = 0;  // sum traffic * hops; < 2^53, so exact as double
  for (std::size_t i = 0; i < uc; ++i) {
    for (std::size_t k = 0; k < uc; ++k) {
      pair[i * uc + k] = traffic[i][k] + traffic[k][i];
      comm += traffic[i][k] *
              hops[static_cast<std::size_t>(placement[i]) * ut +
                   static_cast<std::size_t>(placement[k])];
    }
  }
  // tile_power_of builds each occupied tile as 0.0 + p and leaves empty
  // tiles at 0.0, so a swap just exchanges its two tiles' entries.
  std::vector<double> tile_power = tile_power_of(placement, cluster_power);
  double cur_peak = solver_->peak_die_temperature(tile_power);
  double cur_cost =
      cur_peak + options_.comm_weight * static_cast<double>(comm);

  std::vector<int> best = placement;
  double best_cost = cur_cost;
  int improving = 0;

  // tile -> cluster (-1 for unoccupied), kept in sync with placement.
  std::vector<int> occupant(static_cast<std::size_t>(tiles), -1);
  for (int c = 0; c < clusters; ++c)
    occupant[static_cast<std::size_t>(placement[static_cast<std::size_t>(c)])] =
        c;

  const double cooling =
      options_.iterations > 0
          ? std::pow(options_.temp_end / options_.temp_start,
                     1.0 / options_.iterations)
          : 1.0;
  double temp = options_.temp_start;

  const bool can_move = movable.size() >= 1 && free_tiles.size() >= 2;
  // renoc-hot-begin (one priced swap per anneal move, 20,000 per prepare)
  for (int it = 0; can_move && it < options_.iterations;
       ++it, temp *= cooling) {
    // Pick a random movable cluster and a random *other* free tile; swap
    // occupants.
    const int c = movable[rng.next_index(movable.size())];
    const int t_old = placement[static_cast<std::size_t>(c)];
    int t_new = t_old;
    while (t_new == t_old) {
      t_new = free_tiles[rng.next_index(free_tiles.size())];
    }
    const int other = occupant[static_cast<std::size_t>(t_new)];

    // Only pairs with c or other change length; the (c, other) pair keeps
    // its hops. removed <= comm, so the unsigned update cannot wrap.
    const std::uint64_t* from = &hops[static_cast<std::size_t>(t_old) * ut];
    const std::uint64_t* to = &hops[static_cast<std::size_t>(t_new) * ut];
    const std::uint64_t* w_c = &pair[static_cast<std::size_t>(c) * uc];
    const std::uint64_t* w_o =
        &pair[static_cast<std::size_t>(other >= 0 ? other : clusters) * uc];
    std::uint64_t removed = 0;
    std::uint64_t added = 0;
    for (int k = 0; k < clusters; ++k) {
      if (k == c || k == other) continue;
      const auto uk = static_cast<std::size_t>(k);
      const auto tk = static_cast<std::size_t>(placement[uk]);
      removed += w_c[uk] * from[tk] + w_o[uk] * to[tk];
      added += w_c[uk] * to[tk] + w_o[uk] * from[tk];
    }
    const std::uint64_t new_comm = comm - removed + added;

    // Equal tile powers leave the power map, and so the peak, unchanged.
    const auto a = static_cast<std::size_t>(t_old);
    const auto b = static_cast<std::size_t>(t_new);
    const bool same_power = tile_power[a] == tile_power[b];
    std::swap(tile_power[a], tile_power[b]);
    const double new_peak =
        same_power ? cur_peak : solver_->peak_die_temperature(tile_power);

    const double new_cost =
        new_peak + options_.comm_weight * static_cast<double>(new_comm);
    const double delta = new_cost - cur_cost;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
    if (accept) {
      placement[static_cast<std::size_t>(c)] = t_new;
      if (other >= 0) placement[static_cast<std::size_t>(other)] = t_old;
      occupant[b] = c;
      occupant[a] = other;
      cur_cost = new_cost;
      cur_peak = new_peak;
      comm = new_comm;
      if (delta < 0.0) ++improving;
      if (new_cost < best_cost) {
        best_cost = new_cost;
        best = placement;  // equal sizes: copies without allocating
      }
    } else {
      std::swap(tile_power[a], tile_power[b]);
    }
  }
  // renoc-hot-end

  PlacementResult result;
  result.placement = best;
  result.peak_temperature = peak_temperature_of(best, cluster_power);
  result.comm_cost = comm_cost_of(best, traffic);
  result.cost = best_cost;
  result.improving_moves = improving;
  return result;
}

}  // namespace renoc
