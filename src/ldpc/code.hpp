// Regular LDPC code construction (Gallager ensemble).
//
// The DATE'05 test chips implement the NoC LDPC decoder of Theocharides et
// al. (ISVLSI'05). We build regular (wc, wr) Gallager codes: the parity
// matrix consists of wc row-bands; the first band has row i covering
// columns [i*wr, (i+1)*wr); the remaining bands are random column
// permutations of the first. This yields exactly wr ones per row and wc
// per column, the structure the hardware decoders of that generation used.
//
// The Tanner graph is stored flat in CSR form: three contiguous arrays per
// side (offsets, neighbor node ids, global edge ids), built once at
// construction. Decode kernels stream through these arrays with zero
// pointer chasing; the classic per-node view survives as EdgeView, a
// lightweight span over the CSR slices, so callers keep the familiar
// `for (const TannerEdge& e : code.var_edges(v))` idiom.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {

/// One edge of the Tanner graph, identified by its global index.
struct TannerEdge {
  int other = 0;  ///< the node on the far side (var or check index)
  int edge = 0;   ///< global edge id, shared by both endpoints
};

/// Non-owning view of one node's adjacency inside the flat CSR arrays.
/// Iteration materializes TannerEdge values on the fly, preserving the
/// pre-CSR API without duplicating the graph in memory.
class EdgeView {
 public:
  class Iterator {
   public:
    Iterator(const int* neighbors, const int* edge_ids)
        : neighbors_(neighbors), edge_ids_(edge_ids) {}
    TannerEdge operator*() const { return {*neighbors_, *edge_ids_}; }
    Iterator& operator++() {
      ++neighbors_;
      ++edge_ids_;
      return *this;
    }
    bool operator!=(const Iterator& o) const {
      return neighbors_ != o.neighbors_;
    }
    bool operator==(const Iterator& o) const {
      return neighbors_ == o.neighbors_;
    }

   private:
    const int* neighbors_;
    const int* edge_ids_;
  };

  EdgeView(const int* neighbors, const int* edge_ids, int count)
      : neighbors_(neighbors), edge_ids_(edge_ids), count_(count) {}

  std::size_t size() const { return static_cast<std::size_t>(count_); }
  bool empty() const { return count_ == 0; }
  TannerEdge operator[](std::size_t i) const {
    return {neighbors_[i], edge_ids_[i]};
  }
  Iterator begin() const { return Iterator(neighbors_, edge_ids_); }
  Iterator end() const { return Iterator(neighbors_ + count_, edge_ids_ + count_); }

 private:
  const int* neighbors_;
  const int* edge_ids_;
  int count_;
};

/// Sparse parity-check matrix with flat CSR adjacency and edge ids.
class LdpcCode {
 public:
  /// Builds a regular Gallager code: n variable nodes, wc ones per column,
  /// wr ones per row; the check count is m = n*wc/wr. Requires n % wr == 0
  /// and (n*wc) % wr == 0.
  static LdpcCode make_regular(int n, int wc, int wr, Rng& rng);

  /// Builds an irregular code by socket matching: variable v gets
  /// var_degrees[v] edge sockets, checks get up to wr sockets each
  /// (m = ceil(total/wr) checks), and a random matching pairs them.
  /// Duplicate pairings are repaired by socket swaps; requires every
  /// degree >= 1 and wr >= 2.
  static LdpcCode make_irregular(const std::vector<int>& var_degrees,
                                 int wr, Rng& rng);

  int n() const { return n_; }                 ///< variable nodes
  int m() const { return m_; }                 ///< check nodes
  int edge_count() const { return edges_; }

  /// Adjacency of check c: (variable, edge id) pairs in construction order.
  EdgeView check_edges(int c) const {
    RENOC_CHECK(c >= 0 && c < m_);
    const int begin = check_offsets_[static_cast<std::size_t>(c)];
    return EdgeView(check_neighbors_.data() + begin,
                    check_edge_ids_.data() + begin,
                    check_offsets_[static_cast<std::size_t>(c) + 1] - begin);
  }
  /// Adjacency of variable v: (check, edge id) pairs in construction order.
  EdgeView var_edges(int v) const {
    RENOC_CHECK(v >= 0 && v < n_);
    const int begin = var_offsets_[static_cast<std::size_t>(v)];
    return EdgeView(var_neighbors_.data() + begin,
                    var_edge_ids_.data() + begin,
                    var_offsets_[static_cast<std::size_t>(v) + 1] - begin);
  }

  int check_degree(int c) const {
    RENOC_CHECK(c >= 0 && c < m_);
    return check_offsets_[static_cast<std::size_t>(c) + 1] -
           check_offsets_[static_cast<std::size_t>(c)];
  }
  int var_degree(int v) const {
    RENOC_CHECK(v >= 0 && v < n_);
    return var_offsets_[static_cast<std::size_t>(v) + 1] -
           var_offsets_[static_cast<std::size_t>(v)];
  }

  // Raw CSR arrays for the flat decode kernels. Variable v owns slots
  // [var_offsets()[v], var_offsets()[v+1]) of var_edge_ids()/var_neighbors(),
  // in construction order; the check side is symmetric. Edge ids index the
  // global q/r message arrays shared by every decoder.
  const std::vector<int>& var_offsets() const { return var_offsets_; }
  const std::vector<int>& var_edge_ids() const { return var_edge_ids_; }
  const std::vector<int>& var_neighbors() const { return var_neighbors_; }
  const std::vector<int>& check_offsets() const { return check_offsets_; }
  const std::vector<int>& check_edge_ids() const { return check_edge_ids_; }
  const std::vector<int>& check_neighbors() const { return check_neighbors_; }

  /// True if `bits` (size n, 0/1) satisfies every parity check.
  bool is_codeword(const std::vector<std::uint8_t>& bits) const;

  /// Syndrome weight: number of violated checks.
  int syndrome_weight(const std::vector<std::uint8_t>& bits) const;

 private:
  LdpcCode() = default;
  void add_edge(int check, int var);
  /// Flattens the edge list accumulated by add_edge() into the CSR arrays
  /// and releases the construction scratch.
  void finalize();

  int n_ = 0;
  int m_ = 0;
  int edges_ = 0;

  // Construction scratch: endpoint per edge in add order (edge id = index).
  std::vector<int> edge_check_;
  std::vector<int> edge_var_;

  // CSR adjacency (see the raw accessors above).
  std::vector<int> var_offsets_;    // size n+1
  std::vector<int> var_edge_ids_;   // size E
  std::vector<int> var_neighbors_;  // size E (check ids)
  std::vector<int> check_offsets_;    // size m+1
  std::vector<int> check_edge_ids_;   // size E
  std::vector<int> check_neighbors_;  // size E (variable ids)
};

}  // namespace renoc
