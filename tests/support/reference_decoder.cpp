#include "support/reference_decoder.hpp"

#include <algorithm>
#include <cmath>

#include "ldpc/minsum.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

// Numerical guards for the tanh rule: tanh saturates at |x| ~ 19 in
// double precision; clamping keeps atanh finite.
constexpr double kLlrClamp = 30.0;
constexpr double kTanhClamp = 0.999999999999;

double clamp_llr(double v) { return std::clamp(v, -kLlrClamp, kLlrClamp); }

// --- Seed min-sum kernels, preserved verbatim ------------------------------
// These are the pre-flattening minsum.cpp kernels (std::vector API, branchy
// two-min tracking, per-edge normalize). The reference decoder must pay the
// seed's true cost, so it does not borrow the optimized shared kernels in
// minsum.hpp — those are the "after" side of the comparison.

std::int16_t seed_saturate(std::int32_t v) {
  return static_cast<std::int16_t>(
      std::clamp<std::int32_t>(v, -minsum::kMsgMax, minsum::kMsgMax));
}

std::int16_t seed_normalize(std::int16_t magnitude) {
  const bool neg = magnitude < 0;
  const std::int32_t mag = std::abs(static_cast<std::int32_t>(magnitude));
  const std::int32_t scaled = (3 * mag) >> 2;
  return static_cast<std::int16_t>(neg ? -scaled : scaled);
}

void seed_var_update(std::int16_t channel_llr,
                     const std::vector<std::int16_t>& incoming_r,
                     std::vector<std::int16_t>& out_q) {
  out_q.resize(incoming_r.size());
  std::int32_t total = channel_llr;
  for (std::int16_t r : incoming_r) total += r;
  for (std::size_t i = 0; i < incoming_r.size(); ++i)
    out_q[i] = seed_saturate(total - incoming_r[i]);
}

std::int32_t seed_var_posterior(std::int16_t channel_llr,
                                const std::vector<std::int16_t>& incoming_r) {
  std::int32_t total = channel_llr;
  for (std::int16_t r : incoming_r) total += r;
  return total;
}

void seed_check_update(const std::vector<std::int16_t>& incoming_q,
                       std::vector<std::int16_t>& out_r) {
  const std::size_t deg = incoming_q.size();
  out_r.resize(deg);
  if (deg == 0) return;
  if (deg == 1) {
    out_r[0] = seed_normalize(minsum::kMsgMax);
    return;
  }
  std::int32_t min1 = minsum::kMsgMax + 1, min2 = minsum::kMsgMax + 1;
  std::size_t min1_pos = 0;
  int sign_product = 1;
  for (std::size_t i = 0; i < deg; ++i) {
    const std::int32_t v = incoming_q[i];
    const std::int32_t mag = std::abs(v);
    if (v < 0) sign_product = -sign_product;
    if (mag < min1) {
      min2 = min1;
      min1 = mag;
      min1_pos = i;
    } else if (mag < min2) {
      min2 = mag;
    }
  }
  for (std::size_t i = 0; i < deg; ++i) {
    const std::int32_t extrinsic_min = (i == min1_pos) ? min2 : min1;
    const int self_sign = (incoming_q[i] < 0) ? -1 : 1;
    const int sign = sign_product * self_sign;
    const std::int16_t mag16 = static_cast<std::int16_t>(
        std::min<std::int32_t>(extrinsic_min, minsum::kMsgMax));
    out_r[i] =
        seed_normalize(static_cast<std::int16_t>(sign < 0 ? -mag16 : mag16));
  }
}

}  // namespace

DecodeResult reference_minsum_decode(
    const LdpcCode& code, int iterations, bool early_exit,
    const std::vector<std::int16_t>& channel_llrs) {
  RENOC_CHECK(iterations >= 1);
  RENOC_CHECK(static_cast<int>(channel_llrs.size()) == code.n());

  // Edge-indexed message arrays, allocated per call like the seed did.
  std::vector<std::int16_t> r(static_cast<std::size_t>(code.edge_count()), 0);
  std::vector<std::int16_t> q(static_cast<std::size_t>(code.edge_count()), 0);
  std::vector<std::int16_t> in_buf, out_buf;

  DecodeResult result;
  int iter = 0;
  for (; iter < iterations; ++iter) {
    // --- Variable-node phase (uses r of previous iteration) -------------
    for (int v = 0; v < code.n(); ++v) {
      const auto edges = code.var_edges(v);
      in_buf.clear();
      for (const TannerEdge& e : edges)
        in_buf.push_back(r[static_cast<std::size_t>(e.edge)]);
      seed_var_update(channel_llrs[static_cast<std::size_t>(v)], in_buf,
                      out_buf);
      for (std::size_t i = 0; i < edges.size(); ++i)
        q[static_cast<std::size_t>(edges[i].edge)] = out_buf[i];
    }
    // --- Check-node phase ------------------------------------------------
    for (int c = 0; c < code.m(); ++c) {
      const auto edges = code.check_edges(c);
      in_buf.clear();
      for (const TannerEdge& e : edges)
        in_buf.push_back(q[static_cast<std::size_t>(e.edge)]);
      seed_check_update(in_buf, out_buf);
      for (std::size_t i = 0; i < edges.size(); ++i)
        r[static_cast<std::size_t>(edges[i].edge)] = out_buf[i];
    }
    if (early_exit) {
      // Tentative hard decision to test the syndrome.
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(code.n()));
      for (int v = 0; v < code.n(); ++v) {
        in_buf.clear();
        for (const TannerEdge& e : code.var_edges(v))
          in_buf.push_back(r[static_cast<std::size_t>(e.edge)]);
        bits[static_cast<std::size_t>(v)] =
            seed_var_posterior(channel_llrs[static_cast<std::size_t>(v)],
                               in_buf) < 0
                ? 1
                : 0;
      }
      if (code.is_codeword(bits)) {
        result.hard_bits = std::move(bits);
        result.syndrome_ok = true;
        result.iterations_run = iter + 1;
        return result;
      }
    }
  }

  // Final hard decision from posteriors.
  result.hard_bits.resize(static_cast<std::size_t>(code.n()));
  for (int v = 0; v < code.n(); ++v) {
    in_buf.clear();
    for (const TannerEdge& e : code.var_edges(v))
      in_buf.push_back(r[static_cast<std::size_t>(e.edge)]);
    result.hard_bits[static_cast<std::size_t>(v)] =
        seed_var_posterior(channel_llrs[static_cast<std::size_t>(v)],
                           in_buf) < 0
            ? 1
            : 0;
  }
  result.syndrome_ok = code.is_codeword(result.hard_bits);
  result.iterations_run = iter;
  return result;
}

DecodeResult reference_sum_product_decode(
    const LdpcCode& code, int iterations, bool early_exit,
    const std::vector<double>& channel_llrs) {
  RENOC_CHECK(iterations >= 1);
  RENOC_CHECK(static_cast<int>(channel_llrs.size()) == code.n());

  std::vector<double> r(static_cast<std::size_t>(code.edge_count()), 0.0);
  std::vector<double> q(static_cast<std::size_t>(code.edge_count()), 0.0);

  auto hard_decide = [&](std::vector<std::uint8_t>& bits) {
    bits.resize(static_cast<std::size_t>(code.n()));
    for (int v = 0; v < code.n(); ++v) {
      double total = channel_llrs[static_cast<std::size_t>(v)];
      for (const TannerEdge& e : code.var_edges(v))
        total += r[static_cast<std::size_t>(e.edge)];
      bits[static_cast<std::size_t>(v)] = total < 0 ? 1 : 0;
    }
  };

  DecodeResult result;
  for (int iter = 0; iter < iterations; ++iter) {
    // Variable update: q_e = llr + sum r - r_e.
    for (int v = 0; v < code.n(); ++v) {
      double total = channel_llrs[static_cast<std::size_t>(v)];
      for (const TannerEdge& e : code.var_edges(v))
        total += r[static_cast<std::size_t>(e.edge)];
      for (const TannerEdge& e : code.var_edges(v))
        q[static_cast<std::size_t>(e.edge)] =
            clamp_llr(total - r[static_cast<std::size_t>(e.edge)]);
    }
    // Check update: tanh(r_e/2) = prod_{e' != e} tanh(q_{e'}/2).
    for (int c = 0; c < code.m(); ++c) {
      const auto edges = code.check_edges(c);
      // Full product with exclusion by division is numerically fragile
      // near zero; use prefix/suffix products instead.
      const std::size_t deg = edges.size();
      std::vector<double> tanh_q(deg);
      for (std::size_t i = 0; i < deg; ++i)
        tanh_q[i] = std::tanh(
            q[static_cast<std::size_t>(edges[i].edge)] / 2.0);
      std::vector<double> prefix(deg + 1, 1.0), suffix(deg + 1, 1.0);
      for (std::size_t i = 0; i < deg; ++i)
        prefix[i + 1] = prefix[i] * tanh_q[i];
      for (std::size_t i = deg; i-- > 0;)
        suffix[i] = suffix[i + 1] * tanh_q[i];
      for (std::size_t i = 0; i < deg; ++i) {
        const double prod = std::clamp(prefix[i] * suffix[i + 1],
                                       -kTanhClamp, kTanhClamp);
        r[static_cast<std::size_t>(edges[i].edge)] =
            clamp_llr(2.0 * std::atanh(prod));
      }
    }
    if (early_exit) {
      std::vector<std::uint8_t> bits;
      hard_decide(bits);
      if (code.is_codeword(bits)) {
        result.hard_bits = std::move(bits);
        result.syndrome_ok = true;
        result.iterations_run = iter + 1;
        return result;
      }
    }
  }
  hard_decide(result.hard_bits);
  result.syndrome_ok = code.is_codeword(result.hard_bits);
  result.iterations_run = iterations;
  return result;
}

}  // namespace renoc
