#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace renoc {
namespace {

/// Adds a conductance g between nodes a and b (symmetric stamp: diagonal
/// += g, off-diagonal -= g). Duplicate stamps sum during CSR assembly.
void stamp(std::vector<Triplet>& trips, int a, int b, double g) {
  RENOC_CHECK(g > 0.0);
  trips.push_back({a, a, g});
  trips.push_back({b, b, g});
  trips.push_back({a, b, -g});
  trips.push_back({b, a, -g});
}

/// Vertical conduction resistance of a slab: t / (k * A).
double vertical_r(double thickness, double k, double area) {
  return thickness / (k * area);
}

}  // namespace

RcNetwork::RcNetwork(SparseMatrix g, std::vector<double> cap, int die_count,
                     double ambient)
    : g_(std::move(g)),
      cap_(std::move(cap)),
      die_count_(die_count),
      ambient_(ambient) {
  RENOC_CHECK(g_.rows() == g_.cols());
  RENOC_CHECK(g_.rows() == static_cast<int>(cap_.size()));
  RENOC_CHECK(die_count_ > 0 &&
              die_count_ <= static_cast<int>(cap_.size()));
  for (double c : cap_) RENOC_CHECK(c > 0.0);
}

double RcNetwork::peak_die_rise(const std::vector<double>& rise) const {
  RENOC_CHECK(static_cast<int>(rise.size()) == node_count());
  double peak = rise[0];
  for (int i = 1; i < die_count_; ++i)
    peak = std::max(peak, rise[static_cast<std::size_t>(i)]);
  return peak;
}

double RcNetwork::mean_die_rise(const std::vector<double>& rise) const {
  RENOC_CHECK(static_cast<int>(rise.size()) == node_count());
  double sum = 0.0;
  for (int i = 0; i < die_count_; ++i) sum += rise[static_cast<std::size_t>(i)];
  return sum / die_count_;
}

// Node layout for a floorplan with N blocks (see header): the spreader
// volume under the die is discretized per block so lateral position on the
// die matters (edge blocks reach the spreader periphery more easily than
// central ones, exactly as in HotSpot's finer models):
//
//   [0, N)        die blocks
//   [N, 2N)       TIM blocks
//   [2N, 3N)      spreader under-die nodes (one per block, laterally
//                 connected; boundary ones couple to the periphery)
//   [3N, 3N+4)    spreader periphery trapezoids (N/S/E/W)
//   3N+4          sink center (under the whole spreader)
//   [3N+5, 3N+9)  sink periphery trapezoids
//   3N+9          convection node (r_convec/c_convec to ambient)
RcNetwork build_rc_network(const Floorplan& fp, const HotSpotParams& p) {
  p.validate();
  const int n = fp.block_count();
  const double die_w = fp.die_width();
  const double die_h = fp.die_height();
  RENOC_CHECK_MSG(die_w <= p.s_spreader && die_h <= p.s_spreader,
                  "die " << die_w << "x" << die_h
                         << " m exceeds spreader side " << p.s_spreader);

  const int idx_tim0 = n;
  const int idx_sp0 = 2 * n;          // under-die spreader nodes
  const int idx_sp_per0 = 3 * n;      // N, S, E, W trapezoids
  const int idx_sink_center = 3 * n + 4;
  const int idx_sink_per0 = 3 * n + 5;  // N, S, E, W
  const int idx_convec = 3 * n + 9;
  const int total = 3 * n + 10;

  // ~7 stamps of 4 triplets per node; reserve once and assemble at the end.
  std::vector<Triplet> trips;
  trips.reserve(static_cast<std::size_t>(total) * 28);
  std::vector<double> cap(static_cast<std::size_t>(total), 0.0);

  // --- Capacitances ------------------------------------------------------
  for (int i = 0; i < n; ++i) {
    const Block& b = fp.block(i);
    cap[static_cast<std::size_t>(i)] = p.c_die * b.area() * p.t_die;
    cap[static_cast<std::size_t>(idx_tim0 + i)] =
        p.c_interface * b.area() * p.t_interface;
    cap[static_cast<std::size_t>(idx_sp0 + i)] =
        p.c_spreader * b.area() * p.t_spreader;
  }

  const double a_die_fp = die_w * die_h;  // die footprint on the spreader
  const double a_sp_total = p.s_spreader * p.s_spreader;
  const double a_sp_per_each = (a_sp_total - a_die_fp) / 4.0;
  RENOC_CHECK(a_sp_per_each > 0.0);
  for (int d = 0; d < 4; ++d) {
    cap[static_cast<std::size_t>(idx_sp_per0 + d)] =
        p.c_spreader * a_sp_per_each * p.t_spreader;
  }

  const double a_sink_total = p.s_sink * p.s_sink;
  const double a_sink_per_each = (a_sink_total - a_sp_total) / 4.0;
  RENOC_CHECK(a_sink_per_each > 0.0);
  cap[static_cast<std::size_t>(idx_sink_center)] =
      p.c_sink * a_sp_total * p.t_sink;
  for (int d = 0; d < 4; ++d) {
    cap[static_cast<std::size_t>(idx_sink_per0 + d)] =
        p.c_sink * a_sink_per_each * p.t_sink;
  }

  cap[static_cast<std::size_t>(idx_convec)] = p.c_convec;

  // --- Lateral conduction in die and in the under-die spreader ----------
  for (const Adjacency& adj : fp.adjacencies()) {
    const Block& a = fp.block(adj.a);
    const Block& b = fp.block(adj.b);
    // Heat travels from block center to the shared edge in each block.
    const double half_a = (adj.horizontal ? a.width : a.height) / 2.0;
    const double half_b = (adj.horizontal ? b.width : b.height) / 2.0;
    const double r_die =
        (half_a + half_b) / (p.k_die * p.t_die * adj.shared_len);
    stamp(trips, adj.a, adj.b, 1.0 / r_die);
    const double r_sp =
        (half_a + half_b) / (p.k_spreader * p.t_spreader * adj.shared_len);
    stamp(trips, idx_sp0 + adj.a, idx_sp0 + adj.b, 1.0 / r_sp);
  }

  // --- Vertical stack per block: die -> TIM -> spreader -> sink center --
  for (int i = 0; i < n; ++i) {
    const double a = fp.block(i).area();
    const double r_die_tim = vertical_r(p.t_die / 2, p.k_die, a) +
                             vertical_r(p.t_interface / 2, p.k_interface, a);
    stamp(trips, i, idx_tim0 + i, 1.0 / r_die_tim);
    const double r_tim_sp =
        vertical_r(p.t_interface / 2, p.k_interface, a) +
        vertical_r(p.t_spreader / 2, p.k_spreader, a);
    stamp(trips, idx_tim0 + i, idx_sp0 + i, 1.0 / r_tim_sp);
    const double r_sp_sink = vertical_r(p.t_spreader / 2, p.k_spreader, a) +
                             vertical_r(p.t_sink / 2, p.k_sink, a);
    stamp(trips, idx_sp0 + i, idx_sink_center, 1.0 / r_sp_sink);
  }

  // --- Die-boundary spreader nodes couple to the periphery trapezoids ---
  // A block whose outer edge lies on the die boundary feeds the matching
  // trapezoid through half its own extent plus half the copper margin.
  const double tol = 1e-9;
  for (int i = 0; i < n; ++i) {
    const Block& b = fp.block(i);
    struct EdgeSpec {
      bool on_boundary;
      int trapezoid;      // periphery trapezoid: 0..3 = N, S, E, W
      double edge_len;    // length of the block edge feeding the trapezoid
      double half_extent; // distance from block center to that edge
      double margin;      // copper beyond the die on that side
    };
    const EdgeSpec edges[4] = {
        {std::fabs((b.y + b.height) - die_h) < tol, 0, b.width,
         b.height / 2, (p.s_spreader - die_h) / 2},
        {std::fabs(b.y) < tol, 1, b.width, b.height / 2,
         (p.s_spreader - die_h) / 2},
        {std::fabs((b.x + b.width) - die_w) < tol, 2, b.height,
         b.width / 2, (p.s_spreader - die_w) / 2},
        {std::fabs(b.x) < tol, 3, b.height, b.width / 2,
         (p.s_spreader - die_w) / 2},
    };
    for (const EdgeSpec& e : edges) {
      if (!e.on_boundary) continue;
      // Within the block: constant width. Beyond the die edge the heat
      // spreads into a widening trapezoid; integrating dR = dx/(k t w(x))
      // with w growing linearly from the block edge length to this edge's
      // share of the spreader side gives the log form below.
      const double w1 = e.edge_len;
      const double die_extent = e.trapezoid < 2 ? die_w : die_h;
      const double w2 = p.s_spreader * e.edge_len / die_extent;
      const double r_block =
          e.half_extent / (p.k_spreader * p.t_spreader * w1);
      double r_margin =
          w2 > w1 + tol
              ? e.margin * std::log(w2 / w1) /
                    (p.k_spreader * p.t_spreader * (w2 - w1))
              : e.margin / (p.k_spreader * p.t_spreader * w1);
      // Fin correction: the margin copper sheds heat into the sink along
      // its whole length (it sits directly on the sink base), so the
      // series path to the trapezoid centroid overestimates the effective
      // resistance; the distributed-leakage (fin) solution shortens the
      // effective path to roughly a third of the lumped value.
      r_margin /= 3.0;
      stamp(trips, idx_sp0 + i, idx_sp_per0 + e.trapezoid,
            1.0 / (r_block + r_margin));
    }
  }

  // --- Spreader periphery -> sink center (vertical) ---------------------
  for (int d = 0; d < 4; ++d) {
    const double r_per =
        vertical_r(p.t_spreader / 2, p.k_spreader, a_sp_per_each) +
        vertical_r(p.t_sink / 2, p.k_sink, a_sp_per_each);
    stamp(trips, idx_sp_per0 + d, idx_sink_center, 1.0 / r_per);
  }

  // --- Sink center <-> sink periphery (lateral in sink base) ------------
  {
    const double sink_margin = (p.s_sink - p.s_spreader) / 2.0;
    const double len = p.s_spreader / 4.0 + sink_margin / 2.0;
    const double width = (p.s_spreader + p.s_sink) / 2.0;
    const double r = len / (p.k_sink * p.t_sink * width);
    for (int d = 0; d < 4; ++d)
      stamp(trips, idx_sink_center, idx_sink_per0 + d, 1.0 / r);
  }

  // --- Sink -> convection node (vertical through remaining half sink) ---
  {
    const double r_center = vertical_r(p.t_sink / 2, p.k_sink, a_sp_total);
    stamp(trips, idx_sink_center, idx_convec, 1.0 / r_center);
    for (int d = 0; d < 4; ++d) {
      const double r_per =
          vertical_r(p.t_sink / 2, p.k_sink, a_sink_per_each);
      stamp(trips, idx_sink_per0 + d, idx_convec, 1.0 / r_per);
    }
  }

  // --- Convection to ambient --------------------------------------------
  // Ambient is the reference (temperatures are rises), so the conductance
  // appears only on the diagonal.
  trips.push_back({idx_convec, idx_convec, 1.0 / p.r_convec});

  return RcNetwork(SparseMatrix::from_triplets(total, total, trips),
                   std::move(cap), n, p.ambient);
}

}  // namespace renoc
