#include "ldpc/code.hpp"

#include <numeric>

#include "util/check.hpp"

namespace renoc {

void LdpcCode::add_edge(int check, int var) {
  edge_check_.push_back(check);
  edge_var_.push_back(var);
  ++edges_;
}

void LdpcCode::finalize() {
  RENOC_CHECK(static_cast<int>(edge_check_.size()) == edges_);

  // Degree counts -> exclusive prefix sums.
  var_offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  check_offsets_.assign(static_cast<std::size_t>(m_) + 1, 0);
  for (int e = 0; e < edges_; ++e) {
    ++var_offsets_[static_cast<std::size_t>(edge_var_[
        static_cast<std::size_t>(e)]) + 1];
    ++check_offsets_[static_cast<std::size_t>(edge_check_[
        static_cast<std::size_t>(e)]) + 1];
  }
  for (int v = 0; v < n_; ++v)
    var_offsets_[static_cast<std::size_t>(v) + 1] +=
        var_offsets_[static_cast<std::size_t>(v)];
  for (int c = 0; c < m_; ++c)
    check_offsets_[static_cast<std::size_t>(c) + 1] +=
        check_offsets_[static_cast<std::size_t>(c)];

  // Fill slices in global edge-id order, which reproduces each node's
  // add_edge() construction order — the order every message-passing kernel
  // and the NoC packing contract depend on.
  var_edge_ids_.resize(static_cast<std::size_t>(edges_));
  var_neighbors_.resize(static_cast<std::size_t>(edges_));
  check_edge_ids_.resize(static_cast<std::size_t>(edges_));
  check_neighbors_.resize(static_cast<std::size_t>(edges_));
  std::vector<int> var_cursor(var_offsets_.begin(), var_offsets_.end() - 1);
  std::vector<int> check_cursor(check_offsets_.begin(),
                                check_offsets_.end() - 1);
  for (int e = 0; e < edges_; ++e) {
    const int c = edge_check_[static_cast<std::size_t>(e)];
    const int v = edge_var_[static_cast<std::size_t>(e)];
    const int vs = var_cursor[static_cast<std::size_t>(v)]++;
    var_edge_ids_[static_cast<std::size_t>(vs)] = e;
    var_neighbors_[static_cast<std::size_t>(vs)] = c;
    const int cs = check_cursor[static_cast<std::size_t>(c)]++;
    check_edge_ids_[static_cast<std::size_t>(cs)] = e;
    check_neighbors_[static_cast<std::size_t>(cs)] = v;
  }

  edge_check_.clear();
  edge_check_.shrink_to_fit();
  edge_var_.clear();
  edge_var_.shrink_to_fit();
}

LdpcCode LdpcCode::make_regular(int n, int wc, int wr, Rng& rng) {
  RENOC_CHECK_MSG(n > 0 && wc >= 2 && wr > wc,
                  "need n>0, wc>=2, wr>wc; got n=" << n << " wc=" << wc
                                                   << " wr=" << wr);
  RENOC_CHECK_MSG(n % wr == 0, "n=" << n << " must be divisible by wr=" << wr);
  const int band_rows = n / wr;
  const int m = band_rows * wc;

  LdpcCode code;
  code.n_ = n;
  code.m_ = m;
  code.edge_check_.reserve(static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(wc));
  code.edge_var_.reserve(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(wc));

  // Band 0: row i covers a contiguous stripe of columns.
  for (int r = 0; r < band_rows; ++r)
    for (int k = 0; k < wr; ++k) code.add_edge(r, r * wr + k);

  // Bands 1..wc-1: random column permutations of band 0.
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int band = 1; band < wc; ++band) {
    // Fisher–Yates with the experiment RNG for reproducibility.
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(i + 1)));
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
    for (int r = 0; r < band_rows; ++r) {
      const int check = band * band_rows + r;
      for (int k = 0; k < wr; ++k)
        code.add_edge(check, perm[static_cast<std::size_t>(r * wr + k)]);
    }
  }
  RENOC_CHECK(code.edges_ == n * wc);
  code.finalize();
  return code;
}

// renoc-test-only: needs private access to build the graph; irregular codes
// exercise variable degrees and degree-1 checks on the one decode path.
LdpcCode LdpcCode::make_irregular(const std::vector<int>& var_degrees,
                                  int wr, Rng& rng) {
  const int n = static_cast<int>(var_degrees.size());
  RENOC_CHECK_MSG(n > 0 && wr >= 2, "need variables and wr >= 2");
  int total = 0;
  for (int d : var_degrees) {
    RENOC_CHECK_MSG(d >= 1, "every variable needs degree >= 1");
    total += d;
  }
  const int m = (total + wr - 1) / wr;

  // Socket lists: variable sockets in node order, check sockets striped.
  std::vector<int> var_socket;
  var_socket.reserve(static_cast<std::size_t>(total));
  for (int v = 0; v < n; ++v)
    for (int k = 0; k < var_degrees[static_cast<std::size_t>(v)]; ++k)
      var_socket.push_back(v);
  std::vector<int> check_socket;
  check_socket.reserve(static_cast<std::size_t>(total));
  for (int s = 0; s < total; ++s) check_socket.push_back(s % m);

  // Random matching (Fisher–Yates on the variable side).
  for (int i = total - 1; i > 0; --i) {
    const int j = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(i + 1)));
    std::swap(var_socket[static_cast<std::size_t>(i)],
              var_socket[static_cast<std::size_t>(j)]);
  }

  // Repair duplicate (check, var) pairings by swapping with a random other
  // socket; a handful of passes suffices for sparse graphs.
  auto has_pair = [&](int c, int v) {
    for (int s = 0; s < total; ++s)
      if (check_socket[static_cast<std::size_t>(s)] == c &&
          var_socket[static_cast<std::size_t>(s)] == v)
        return true;
    return false;
  };
  for (int pass = 0; pass < 32; ++pass) {
    bool clean = true;
    std::vector<std::vector<char>> seen(
        static_cast<std::size_t>(m), std::vector<char>(
                                         static_cast<std::size_t>(n), 0));
    for (int s = 0; s < total; ++s) {
      const int c = check_socket[static_cast<std::size_t>(s)];
      const int v = var_socket[static_cast<std::size_t>(s)];
      if (!seen[static_cast<std::size_t>(c)][static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(c)][static_cast<std::size_t>(v)] = 1;
        continue;
      }
      clean = false;
      // Swap this socket's variable with a random other socket whose swap
      // creates no new duplicate (best effort; retried next pass).
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int o = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(total)));
        const int oc = check_socket[static_cast<std::size_t>(o)];
        const int ov = var_socket[static_cast<std::size_t>(o)];
        if (oc == c || ov == v) continue;
        if (has_pair(c, ov) || has_pair(oc, v)) continue;
        std::swap(var_socket[static_cast<std::size_t>(s)],
                  var_socket[static_cast<std::size_t>(o)]);
        break;
      }
    }
    if (clean) break;
  }

  LdpcCode code;
  code.n_ = n;
  code.m_ = m;
  code.edge_check_.reserve(static_cast<std::size_t>(total));
  code.edge_var_.reserve(static_cast<std::size_t>(total));
  for (int s = 0; s < total; ++s)
    code.add_edge(check_socket[static_cast<std::size_t>(s)],
                  var_socket[static_cast<std::size_t>(s)]);
  code.finalize();
  return code;
}

bool LdpcCode::is_codeword(const std::vector<std::uint8_t>& bits) const {
  return syndrome_weight(bits) == 0;
}

int LdpcCode::syndrome_weight(const std::vector<std::uint8_t>& bits) const {
  RENOC_CHECK(static_cast<int>(bits.size()) == n_);
  int violated = 0;
  const int* neighbors = check_neighbors_.data();
  for (int c = 0; c < m_; ++c) {
    const int end = check_offsets_[static_cast<std::size_t>(c) + 1];
    int parity = 0;
    for (int s = check_offsets_[static_cast<std::size_t>(c)]; s < end; ++s)
      parity ^= bits[static_cast<std::size_t>(neighbors[s])] & 1;
    violated += parity;
  }
  return violated;
}

}  // namespace renoc
