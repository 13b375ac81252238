#include "util/sparse.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace renoc {
namespace {

std::size_t uz(int i) { return static_cast<std::size_t>(i); }

/// Widest column group step_permuted unrolls; wider blocks run in groups.
constexpr int kStepGroup = 8;

}  // namespace

SparseMatrix SparseMatrix::from_triplets(
    int rows, int cols, const std::vector<Triplet>& triplets) {
  RENOC_CHECK_MSG(rows >= 0 && cols >= 0,
                  "bad sparse shape " << rows << "x" << cols);
  for (const Triplet& t : triplets)
    RENOC_CHECK_MSG(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                    "triplet (" << t.row << "," << t.col << ") out of "
                                << rows << "x" << cols);

  std::vector<Triplet> sorted = triplets;
  std::sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(uz(rows) + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.vals_.reserve(sorted.size());

  // Merge duplicates in one sorted pass.
  for (std::size_t i = 0; i < sorted.size();) {
    const int r = sorted[i].row;
    const int c = sorted[i].col;
    double sum = 0.0;
    for (; i < sorted.size() && sorted[i].row == r && sorted[i].col == c; ++i)
      sum += sorted[i].value;
    m.col_idx_.push_back(c);
    m.vals_.push_back(sum);
    m.row_ptr_[uz(r) + 1] = static_cast<int>(m.col_idx_.size());
  }
  // Rows with no entries inherit the previous row's end pointer.
  for (std::size_t r = 1; r < m.row_ptr_.size(); ++r)
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  return m;
}

SparseMatrix SparseMatrix::plus_diagonal(const std::vector<double>& d) const {
  RENOC_CHECK(rows_ == cols_);
  RENOC_CHECK(static_cast<int>(d.size()) == rows_);
  SparseMatrix out = *this;
  for (int r = 0; r < rows_; ++r) {
    bool found = false;
    for (int p = row_ptr_[uz(r)]; p < row_ptr_[uz(r) + 1]; ++p) {
      if (col_idx_[uz(p)] == r) {
        out.vals_[uz(p)] += d[uz(r)];
        found = true;
        break;
      }
    }
    RENOC_CHECK_MSG(found, "row " << r << " has no stored diagonal entry");
  }
  return out;
}

std::vector<int> bandwidth_reducing_ordering(const SparseMatrix& a,
                                             int hub_degree) {
  RENOC_CHECK(a.rows() == a.cols());
  RENOC_CHECK(hub_degree >= 0);
  const int n = a.rows();
  std::vector<int> degree(uz(n), 0);
  for (int r = 0; r < n; ++r) {
    for (int p = a.row_ptr()[uz(r)]; p < a.row_ptr()[uz(r) + 1]; ++p)
      if (a.col_idx()[uz(p)] != r) ++degree[uz(r)];
  }

  std::vector<int> perm;
  perm.reserve(uz(n));
  std::vector<char> placed(uz(n), 0);
  const auto is_hub = [&](int v) { return degree[uz(v)] > hub_degree; };

  // Cuthill-McKee over the non-hub subgraph: BFS from a minimum-degree
  // unvisited node, expanding neighbours in ascending-degree order. Hubs
  // are skipped here (they would collapse the level structure — every grid
  // node is within a couple of hops of the sink center).
  std::vector<int> frontier;
  std::vector<int> nbrs;
  for (;;) {
    int start = -1;
    for (int v = 0; v < n; ++v)
      if (!placed[uz(v)] && !is_hub(v) &&
          (start == -1 || degree[uz(v)] < degree[uz(start)]))
        start = v;
    if (start == -1) break;
    placed[uz(start)] = 1;
    frontier.assign(1, start);
    std::size_t head = 0;
    while (head < frontier.size()) {
      const int v = frontier[head++];
      perm.push_back(v);
      nbrs.clear();
      for (int p = a.row_ptr()[uz(v)]; p < a.row_ptr()[uz(v) + 1]; ++p) {
        const int w = a.col_idx()[uz(p)];
        if (w == v || placed[uz(w)] || is_hub(w)) continue;
        placed[uz(w)] = 1;
        nbrs.push_back(w);
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](int x, int y) {
        return degree[uz(x)] != degree[uz(y)] ? degree[uz(x)] < degree[uz(y)]
                                              : x < y;
      });
      frontier.insert(frontier.end(), nbrs.begin(), nbrs.end());
    }
  }
  std::reverse(perm.begin(), perm.end());  // Cuthill-McKee -> reverse CM

  // Hubs last, smallest degree first, so the densest row is eliminated at
  // the very end where its fill is already confined.
  std::vector<int> hubs;
  for (int v = 0; v < n; ++v)
    if (!placed[uz(v)]) hubs.push_back(v);
  std::sort(hubs.begin(), hubs.end(), [&](int x, int y) {
    return degree[uz(x)] != degree[uz(y)] ? degree[uz(x)] < degree[uz(y)]
                                          : x < y;
  });
  perm.insert(perm.end(), hubs.begin(), hubs.end());
  RENOC_CHECK(static_cast<int>(perm.size()) == n);
  return perm;
}

std::vector<int> minimum_degree_ordering(const SparseMatrix& a) {
  RENOC_CHECK(a.rows() == a.cols());
  const int n = a.rows();

  // Quotient-graph minimum degree (Davis, "Direct Methods", ch. 7, without
  // supervariable detection): each uneliminated variable v keeps a list of
  // adjacent uneliminated variables (vadj) and of elements — eliminated
  // pivots standing in for the clique of their boundary (belem). At each
  // step the minimum-degree variable (smallest index on ties, for
  // deterministic orderings) is eliminated: its boundary becomes a new
  // element, the elements it touched are absorbed, and only the boundary's
  // degrees are recomputed.
  std::vector<std::vector<int>> vadj(uz(n));
  std::vector<std::vector<int>> eadj(uz(n));   // element ids per variable
  std::vector<std::vector<int>> belem;         // boundary per element
  std::vector<char> absorbed;                  // per element
  for (int r = 0; r < n; ++r)
    for (int p = a.row_ptr()[uz(r)]; p < a.row_ptr()[uz(r) + 1]; ++p) {
      const int c = a.col_idx()[uz(p)];
      if (c != r) vadj[uz(r)].push_back(c);
    }

  std::vector<char> alive(uz(n), 1);
  std::vector<int> degree(uz(n), 0);
  for (int v = 0; v < n; ++v)
    degree[uz(v)] = static_cast<int>(vadj[uz(v)].size());

  std::vector<int> mark(uz(n), -1);  // epoch marks for set unions
  int epoch = 0;
  std::vector<int> boundary;
  boundary.reserve(uz(n));

  // Gathers the distinct alive neighbours of v (variables plus element
  // boundaries) under the current epoch mark; returns the count.
  const auto scan_neighbours = [&](int v) {
    int count = 0;
    ++epoch;
    mark[uz(v)] = epoch;
    for (const int w : vadj[uz(v)]) {
      if (!alive[uz(w)] || mark[uz(w)] == epoch) continue;
      mark[uz(w)] = epoch;
      ++count;
    }
    for (const int e : eadj[uz(v)]) {
      if (absorbed[uz(e)]) continue;
      for (const int w : belem[uz(e)]) {
        if (!alive[uz(w)] || mark[uz(w)] == epoch) continue;
        mark[uz(w)] = epoch;
        ++count;
      }
    }
    return count;
  };

  std::vector<int> perm;
  perm.reserve(uz(n));
  for (int step = 0; step < n; ++step) {
    int pivot = -1;
    for (int v = 0; v < n; ++v)
      if (alive[uz(v)] &&
          (pivot == -1 || degree[uz(v)] < degree[uz(pivot)]))
        pivot = v;
    perm.push_back(pivot);
    alive[uz(pivot)] = 0;

    // Boundary of the new element: distinct alive neighbours of the pivot.
    boundary.clear();
    ++epoch;
    mark[uz(pivot)] = epoch;
    for (const int w : vadj[uz(pivot)]) {
      if (!alive[uz(w)] || mark[uz(w)] == epoch) continue;
      mark[uz(w)] = epoch;
      boundary.push_back(w);
    }
    for (const int e : eadj[uz(pivot)]) {
      if (absorbed[uz(e)]) continue;
      absorbed[uz(e)] = 1;  // the new element covers this one's clique
      for (const int w : belem[uz(e)]) {
        if (!alive[uz(w)] || mark[uz(w)] == epoch) continue;
        mark[uz(w)] = epoch;
        boundary.push_back(w);
      }
    }
    const int e_new = static_cast<int>(belem.size());
    belem.push_back(boundary);
    absorbed.push_back(0);

    // Update each boundary variable: prune its variable list to alive
    // non-boundary entries (boundary coverage moves to the new element),
    // drop absorbed elements, attach e_new, and recompute its degree.
    for (const int u : boundary) {
      auto& va = vadj[uz(u)];
      std::size_t keep = 0;
      for (const int w : va)
        if (alive[uz(w)] && mark[uz(w)] != epoch) va[keep++] = w;
      va.resize(keep);
      auto& ea = eadj[uz(u)];
      keep = 0;
      for (const int e : ea)
        if (!absorbed[uz(e)]) ea[keep++] = e;
      ea.resize(keep);
      ea.push_back(e_new);
    }
    for (const int u : boundary) degree[uz(u)] = scan_neighbours(u);
  }
  RENOC_CHECK(static_cast<int>(perm.size()) == n);
  return perm;
}

SparseLdlt::SparseLdlt(const SparseMatrix& a, std::vector<int> perm)
    : n_(a.rows()) {
  RENOC_CHECK_MSG(a.rows() == a.cols(), "LDL^T requires a square matrix");
  if (perm.empty()) perm = bandwidth_reducing_ordering(a);
  RENOC_CHECK_MSG(static_cast<int>(perm.size()) == n_,
                  "permutation size " << perm.size() << " != n " << n_);
  perm_ = std::move(perm);
  iperm_.assign(uz(n_), -1);
  for (int k = 0; k < n_; ++k) {
    const int v = perm_[uz(k)];
    RENOC_CHECK_MSG(v >= 0 && v < n_ && iperm_[uz(v)] == -1,
                    "perm is not a permutation of 0.." << n_ - 1);
    iperm_[uz(v)] = k;
  }

  // --- Symbolic pass: elimination tree and per-column fill counts --------
  // Up-looking LDL^T (Davis, "Direct Methods for Sparse Linear Systems",
  // the LDL kernel): the pattern of row k of L is found by walking each
  // upper-triangular entry of row k of PAP^T up the elimination tree.
  const std::vector<int>& ap = a.row_ptr();
  const std::vector<int>& ai = a.col_idx();
  const std::vector<double>& ax = a.values();

  std::vector<int> parent(uz(n_), -1);
  std::vector<int> lnz(uz(n_), 0);
  std::vector<int> flag(uz(n_), -1);
  for (int k = 0; k < n_; ++k) {
    flag[uz(k)] = k;
    const int orig = perm_[uz(k)];
    for (int p = ap[uz(orig)]; p < ap[uz(orig) + 1]; ++p) {
      int i = iperm_[uz(ai[uz(p)])];
      if (i >= k) continue;  // strictly upper entries of the permuted row
      for (; flag[uz(i)] != k; i = parent[uz(i)]) {
        if (parent[uz(i)] == -1) parent[uz(i)] = k;
        ++lnz[uz(i)];
        flag[uz(i)] = k;
      }
    }
  }

  lp_.assign(uz(n_) + 1, 0);
  for (int k = 0; k < n_; ++k) lp_[uz(k) + 1] = lp_[uz(k)] + lnz[uz(k)];
  li_.assign(uz(lp_[uz(n_)]), 0);
  lx_.assign(uz(lp_[uz(n_)]), 0.0);
  d_.assign(uz(n_), 0.0);

  // --- Numeric pass ------------------------------------------------------
  std::vector<double> y(uz(n_), 0.0);
  std::vector<int> pattern(uz(n_), 0);
  std::vector<int> path(uz(n_), 0);
  std::vector<int> lfill(uz(n_), 0);  // entries written into each column
  std::fill(flag.begin(), flag.end(), -1);
  for (int k = 0; k < n_; ++k) {
    int top = n_;
    flag[uz(k)] = k;
    const int orig = perm_[uz(k)];
    for (int p = ap[uz(orig)]; p < ap[uz(orig) + 1]; ++p) {
      const int j = iperm_[uz(ai[uz(p)])];
      if (j > k) continue;
      y[uz(j)] += ax[uz(p)];
      int len = 0;
      for (int i = j; flag[uz(i)] != k; i = parent[uz(i)]) {
        path[uz(len++)] = i;
        flag[uz(i)] = k;
      }
      while (len > 0) pattern[uz(--top)] = path[uz(--len)];
    }
    d_[uz(k)] = y[uz(k)];
    y[uz(k)] = 0.0;
    for (int p = top; p < n_; ++p) {
      const int i = pattern[uz(p)];
      const double yi = y[uz(i)];
      y[uz(i)] = 0.0;
      const int pstart = lp_[uz(i)];
      for (int q = pstart; q < pstart + lfill[uz(i)]; ++q)
        y[uz(li_[uz(q)])] -= lx_[uz(q)] * yi;
      const double l_ki = yi / d_[uz(i)];
      d_[uz(k)] -= l_ki * yi;
      li_[uz(pstart + lfill[uz(i)])] = k;
      lx_[uz(pstart + lfill[uz(i)])] = l_ki;
      ++lfill[uz(i)];
    }
    RENOC_CHECK_MSG(d_[uz(k)] > 0.0,
                    "matrix is singular or not positive definite (pivot "
                        << d_[uz(k)] << " at step " << k << ")");
  }

  inv_d_.assign(uz(n_), 0.0);
  for (int k = 0; k < n_; ++k) inv_d_[uz(k)] = 1.0 / d_[uz(k)];
}

void SparseLdlt::build_row_form() const {
  // Columns are walked in ascending order, so each row's entries land in
  // ascending column order.
  rp_.assign(uz(n_) + 1, 0);
  for (const int i : li_) ++rp_[uz(i) + 1];
  for (int k = 0; k < n_; ++k) rp_[uz(k) + 1] += rp_[uz(k)];
  rc_.resize(li_.size());
  rx_.resize(lx_.size());
  std::vector<int> next(rp_.begin(), rp_.end() - 1);
  for (int j = 0; j < n_; ++j)
    for (int p = lp_[uz(j)]; p < lp_[uz(j) + 1]; ++p) {
      const int q = next[uz(li_[uz(p)])]++;
      rc_[uz(q)] = j;
      rx_[uz(q)] = lx_[uz(p)];
    }
}

std::vector<double> SparseLdlt::solve(const std::vector<double>& b) const {
  std::vector<double> x(b);
  solve_in_place(x);
  return x;
}

void SparseLdlt::solve_in_place(std::vector<double>& x) const {
  RENOC_CHECK(static_cast<int>(x.size()) == n_);
  scratch_.resize(uz(n_));
  std::vector<double>& y = scratch_;
  for (int k = 0; k < n_; ++k) y[uz(k)] = x[uz(perm_[uz(k)])];
  // L z = y (unit-diagonal, by columns).
  for (int k = 0; k < n_; ++k) {
    const double yk = y[uz(k)];
    for (int p = lp_[uz(k)]; p < lp_[uz(k) + 1]; ++p)
      y[uz(li_[uz(p)])] -= lx_[uz(p)] * yk;
  }
  for (int k = 0; k < n_; ++k) y[uz(k)] /= d_[uz(k)];
  // L^T w = z (by columns of L, i.e. rows of L^T, in reverse).
  for (int k = n_ - 1; k >= 0; --k) {
    double acc = y[uz(k)];
    for (int p = lp_[uz(k)]; p < lp_[uz(k) + 1]; ++p)
      acc -= lx_[uz(p)] * y[uz(li_[uz(p)])];
    y[uz(k)] = acc;
  }
  for (int k = 0; k < n_; ++k) x[uz(perm_[uz(k)])] = y[uz(k)];
}

template <int W>
void SparseLdlt::step_group(const double* cd, const double* p, double* y,
                            std::size_t stride) const {
  const int* rp = rp_.data();
  const int* rc = rc_.data();
  const double* rx = rx_.data();
  const int* lp = lp_.data();
  const int* li = li_.data();
  const double* lx = lx_.data();
  const double* invd = inv_d_.data();
  // renoc-hot-begin (one step of up to 8 co-simulations, every transient step)
  // Forward sweep L z = cd .* y + p by rows: row k's slots still hold the
  // previous state when it is reached, and every row it reads is final.
  for (int k = 0; k < n_; ++k) {
    double* yk = y + uz(k) * stride;
    const double* pk = p + uz(k) * stride;
    double acc[W];
    for (int j = 0; j < W; ++j) acc[j] = cd[k] * yk[j] + pk[j];
    for (int q = rp[k]; q < rp[k + 1]; ++q) {
      const double l = rx[q];
      const double* yc = y + uz(rc[q]) * stride;
      for (int j = 0; j < W; ++j) acc[j] -= l * yc[j];
    }
    for (int j = 0; j < W; ++j) yk[j] = acc[j];
  }
  // Backward sweep with D^{-1} fused and four accumulators per column: the
  // plain per-column dot is a serial chain whose latency, not throughput,
  // bounds the sweep; splitting it breaks the chain. Row k is scaled
  // before its dot products: with the scaling in the final expression,
  // GCC 12 leaves the accumulators scalar and spills them.
  for (int k = n_ - 1; k >= 0; --k) {
    double* yk = y + uz(k) * stride;
    double scaled[W];
    for (int j = 0; j < W; ++j) scaled[j] = yk[j] * invd[k];
    const int q1 = lp[k + 1];
    double a0[W] = {}, a1[W] = {}, a2[W] = {}, a3[W] = {};
    int q = lp[k];
    for (; q + 3 < q1; q += 4) {
      const double* y0 = y + uz(li[q]) * stride;
      const double* y1 = y + uz(li[q + 1]) * stride;
      const double* y2 = y + uz(li[q + 2]) * stride;
      const double* y3 = y + uz(li[q + 3]) * stride;
      for (int j = 0; j < W; ++j) a0[j] += lx[q] * y0[j];
      for (int j = 0; j < W; ++j) a1[j] += lx[q + 1] * y1[j];
      for (int j = 0; j < W; ++j) a2[j] += lx[q + 2] * y2[j];
      for (int j = 0; j < W; ++j) a3[j] += lx[q + 3] * y3[j];
    }
    for (; q < q1; ++q) {
      const double* yq = y + uz(li[q]) * stride;
      for (int j = 0; j < W; ++j) a0[j] += lx[q] * yq[j];
    }
    for (int j = 0; j < W; ++j)
      yk[j] = scaled[j] - ((a0[j] + a1[j]) + (a2[j] + a3[j]));
  }
  // renoc-hot-end
}

void SparseLdlt::step_permuted(const double* cd, const double* p, double* y,
                               int width) const {
  RENOC_CHECK_MSG(width >= 1, "step needs at least one column");
  if (rp_.empty()) build_row_form();
  const std::size_t stride = uz(width);
  // Column groups are independent, so a wide block runs group by group.
  for (int j0 = 0; j0 < width; j0 += kStepGroup) {
    const double* pg = p + j0;
    double* yg = y + j0;
    switch (std::min(kStepGroup, width - j0)) {
      case 1: step_group<1>(cd, pg, yg, stride); break;
      case 2: step_group<2>(cd, pg, yg, stride); break;
      case 3: step_group<3>(cd, pg, yg, stride); break;
      case 4: step_group<4>(cd, pg, yg, stride); break;
      case 5: step_group<5>(cd, pg, yg, stride); break;
      case 6: step_group<6>(cd, pg, yg, stride); break;
      case 7: step_group<7>(cd, pg, yg, stride); break;
      default: step_group<8>(cd, pg, yg, stride); break;
    }
  }
}

}  // namespace renoc
