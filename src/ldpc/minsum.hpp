// Shared fixed-point min-sum arithmetic.
//
// Both the golden (software) decoder and the NoC-mapped decoder call these
// kernels with identical operand ordering, which guarantees bit-identical
// results — the property the tests use to prove that distributing the
// decoder over the network does not change its function.
//
// Messages are int16 fixed-point LLRs saturated to [-kMsgMax, kMsgMax].
// Check updates use normalized min-sum with factor 3/4 (exact in fixed
// point: (3*m) >> 2), the standard hardware-friendly normalization.
//
// Each kernel has one edge-indexed implementation: it gathers and scatters
// through `edge_ids` into the global edge-indexed q/r arrays in place — no
// copy-in/out, no allocation. A node's slice of LdpcCode's CSR arrays
// names exactly the slots to touch, in construction order, so results stay
// bit-identical to the seed loops. Kernels are defined inline here so the
// per-node calls in the decode loops melt into the loops themselves; the
// check kernel tracks its two minima branchlessly and normalizes once per
// magnitude instead of once per edge (a check emits only two distinct
// output magnitudes).
#pragma once

#include <cstdint>

namespace renoc::minsum {

inline constexpr std::int16_t kMsgMax = 127;

/// Saturation to the message domain.
inline std::int16_t saturate(std::int32_t v) {
  const std::int32_t lo = v < -kMsgMax ? -kMsgMax : v;
  return static_cast<std::int16_t>(lo > kMsgMax ? kMsgMax : lo);
}

/// Normalization by 3/4, preserving sign, exact in integer arithmetic.
inline std::int16_t normalize(std::int16_t magnitude) {
  const bool neg = magnitude < 0;
  const std::int32_t mag = neg ? -static_cast<std::int32_t>(magnitude)
                               : static_cast<std::int32_t>(magnitude);
  const std::int32_t scaled = (3 * mag) >> 2;
  return static_cast<std::int16_t>(neg ? -scaled : scaled);
}

// --- Edge-indexed kernels --------------------------------------------------
// `r`/`q` are the global edge-indexed message arrays; `edge_ids` is the
// node's CSR slice (degree entries), read in construction order.

// renoc-hot-begin (per-node message kernels: the decoders' innermost code)

/// Variable-node update for one variable:
/// q_e = sat( llr + sum_{e'} r_{e'} - r_e ) for each incident edge e.
/// Wide accumulation first (order-independent), then per-edge extrinsic
/// subtraction with a single saturation — the canonical ordering.
inline void var_update_edges(std::int16_t channel_llr, const std::int16_t* r,
                             std::int16_t* q, const int* edge_ids,
                             int degree) {
  std::int32_t total = channel_llr;
  for (int i = 0; i < degree; ++i) total += r[edge_ids[i]];
  for (int i = 0; i < degree; ++i)
    q[edge_ids[i]] = saturate(total - r[edge_ids[i]]);
}

/// Posterior (APP) value for hard decision: llr + sum of all incoming r.
inline std::int32_t var_posterior_edges(std::int16_t channel_llr,
                                        const std::int16_t* r,
                                        const int* edge_ids, int degree) {
  std::int32_t total = channel_llr;
  for (int i = 0; i < degree; ++i) total += r[edge_ids[i]];
  return total;
}

/// Check-node update for one check:
/// r_e = norm( prod_{e'!=e} sign(q_{e'}) * min_{e'!=e} |q_{e'}| ).
/// Zero inputs are treated as positive sign with magnitude 0 (hardware
/// convention). `q` and `r` must be distinct arrays (the output pass
/// re-reads the inputs).
inline void check_update_edges(const std::int16_t* q, std::int16_t* r,
                               const int* edge_ids, int degree) {
  if (degree == 0) return;
  if (degree == 1) {
    // Degenerate check: the extrinsic min over an empty set saturates.
    r[edge_ids[0]] = normalize(kMsgMax);
    return;
  }
  // Two smallest magnitudes + parity of negative signs in one branch-free
  // pass: `hi = max(mag, min1)` is the value min2 must absorb whichever way
  // the min1 update goes (the displaced min1 when mag takes over, and mag
  // itself otherwise). Min-sum inputs are noise, so every select here must
  // compile to a conditional move — a branch on message data mispredicts
  // until the block converges. Nested ternaries and a plain
  // `(i == min1_pos)` select both came out as branches under gcc -O3; the
  // min/max idioms and the mask arithmetic below stay branch-free.
  std::int32_t min1 = kMsgMax + 1, min2 = kMsgMax + 1;
  std::int32_t min1_pos = 0;
  std::uint32_t neg_parity = 0;
  for (int i = 0; i < degree; ++i) {
    const std::int32_t v = q[edge_ids[i]];
    const std::int32_t mag = v < 0 ? -v : v;
    neg_parity ^= static_cast<std::uint32_t>(v < 0);
    const std::int32_t hi = mag > min1 ? mag : min1;
    const std::int32_t take = -static_cast<std::int32_t>(mag < min1);
    min1_pos = (min1_pos & ~take) | (i & take);
    min1 = mag < min1 ? mag : min1;
    min2 = hi < min2 ? hi : min2;
  }
  // Every edge sees magnitude min1 except min1_pos, which sees min2; both
  // saturate to kMsgMax then normalize by 3/4 — hoisted out of the loop.
  const std::int32_t norm1 =
      (3 * (min1 > kMsgMax ? static_cast<std::int32_t>(kMsgMax) : min1)) >> 2;
  const std::int32_t norm2 =
      (3 * (min2 > kMsgMax ? static_cast<std::int32_t>(kMsgMax) : min2)) >> 2;
  for (int i = 0; i < degree; ++i) {
    // Sign excluding edge i: parity of all negative inputs minus this
    // edge's sign (zero treated as positive).
    const std::int32_t neg = -static_cast<std::int32_t>(
        neg_parity ^ static_cast<std::uint32_t>(q[edge_ids[i]] < 0));
    const std::int32_t sel = -static_cast<std::int32_t>(i == min1_pos);
    const std::int32_t mag = (norm1 & ~sel) | (norm2 & sel);
    r[edge_ids[i]] = static_cast<std::int16_t>((mag ^ neg) - neg);
  }
}
// renoc-hot-end

}  // namespace renoc::minsum
