#include "support/reference_placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace renoc {

ReferencePlacer::ReferencePlacer(const SteadyStateSolver& solver,
                                 const GridDim& dim, PlacerOptions options)
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

std::vector<double> ReferencePlacer::tile_power_of(
    const std::vector<int>& placement,
    const std::vector<double>& cluster_power) const {
  std::vector<double> tile_power(
      static_cast<std::size_t>(dim_.node_count()), 0.0);
  for (std::size_t c = 0; c < cluster_power.size(); ++c) {
    const int tile = placement[c];
    RENOC_CHECK(tile >= 0 && tile < dim_.node_count());
    tile_power[static_cast<std::size_t>(tile)] += cluster_power[c];
  }
  return tile_power;
}

double ReferencePlacer::comm_cost_of(
    const std::vector<int>& placement,
    const std::vector<std::vector<std::uint64_t>>& traffic) const {
  double cost = 0.0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    for (std::size_t j = 0; j < traffic[i].size(); ++j) {
      if (traffic[i][j] == 0) continue;
      const GridCoord a = index_to_coord(placement[i], dim_);
      const GridCoord b = index_to_coord(placement[j], dim_);
      cost += static_cast<double>(traffic[i][j]) * manhattan(a, b);
    }
  }
  return cost;
}

double ReferencePlacer::peak_temperature_of(
    const std::vector<int>& placement,
    const std::vector<double>& cluster_power) const {
  return solver_->peak_die_temperature(
      tile_power_of(placement, cluster_power));
}

double ReferencePlacer::cost_of(
    const std::vector<int>& placement,
    const std::vector<double>& cluster_power,
    const std::vector<std::vector<std::uint64_t>>& traffic) const {
  return peak_temperature_of(placement, cluster_power) +
         options_.comm_weight * comm_cost_of(placement, traffic);
}

PlacementResult ReferencePlacer::place(
    const std::vector<double>& cluster_power,
    const std::vector<std::vector<std::uint64_t>>& traffic,
    const std::vector<ThermalAwarePlacer::Pin>& pins) const {
  const int tiles = dim_.node_count();
  const int clusters = static_cast<int>(cluster_power.size());
  RENOC_CHECK_MSG(clusters <= tiles, "more clusters than tiles");
  RENOC_CHECK(static_cast<int>(traffic.size()) == clusters);

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
    for (const ThermalAwarePlacer::Pin& pin : pins) {
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

  double cur_cost = cost_of(placement, cluster_power, traffic);
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
    placement[static_cast<std::size_t>(c)] = t_new;
    if (other >= 0) placement[static_cast<std::size_t>(other)] = t_old;

    const double new_cost = cost_of(placement, cluster_power, traffic);
    const double delta = new_cost - cur_cost;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
    if (accept) {
      cur_cost = new_cost;
      occupant[static_cast<std::size_t>(t_new)] = c;
      occupant[static_cast<std::size_t>(t_old)] = other;
      if (delta < 0.0) ++improving;
      if (new_cost < best_cost) {
        best_cost = new_cost;
        best = placement;
      }
    } else {
      placement[static_cast<std::size_t>(c)] = t_old;
      if (other >= 0) placement[static_cast<std::size_t>(other)] = t_new;
    }
  }

  PlacementResult result;
  result.placement = best;
  result.peak_temperature = peak_temperature_of(best, cluster_power);
  result.comm_cost = comm_cost_of(best, traffic);
  result.cost = best_cost;
  result.improving_moves = improving;
  return result;
}

}  // namespace renoc
