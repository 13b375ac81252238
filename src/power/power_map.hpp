// Power-map algebra: permutation, averaging, summaries.
//
// A power map is a vector of watts indexed by physical tile. Migration
// moves workloads between tiles, which acts on the map as a permutation;
// the thermal behaviour of a migrating system at short periods is governed
// by the orbit-average of the map under the accumulated transforms (see
// core/thermal_runtime).
#pragma once

#include <vector>

namespace renoc {

/// Returns q with q[perm[i]] = power[i]; perm must be a bijection on
/// [0, size). "perm[i] is where the workload of tile i moves to."
std::vector<double> apply_permutation(const std::vector<double>& power,
                                      const std::vector<int>& perm);

/// apply_permutation() into a caller-provided buffer (`out` is resized and
/// overwritten; must not alias `power`), so reused buffers make repeated
/// permutations allocation-free. Results are bit-identical to
/// apply_permutation().
void apply_permutation_into(const std::vector<double>& power,
                            const std::vector<int>& perm,
                            std::vector<double>& out);

/// Verifies that perm is a bijection on [0, perm.size()); throws otherwise.
void check_permutation(const std::vector<int>& perm);

/// Element-wise mean of equally-weighted maps (all same size, >= 1 map).
std::vector<double> average_maps(const std::vector<std::vector<double>>& maps);

/// Sum of entries (total watts).
double total_power(const std::vector<double>& map);

/// In-place multiply by s.
void scale_map(std::vector<double>& map, double s);

}  // namespace renoc
