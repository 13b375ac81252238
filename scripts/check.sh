#!/usr/bin/env bash
# One-shot tier-1 verify: configure, build (library, tools, benches,
# examples, tests), and run ctest in Debug and Release with
# warnings-as-errors. The engine guards are ctest cases: bit-exactness
# against the seed oracles in tests/support, steady-state allocations
# (alloc_guard_test), thread-count invariance of every sweep, and the
# degraded-fabric conservation law. So is the paper-records check:
# paper_goldens_test runs renoc_paper --smoke and diffs every PAPER_*.json
# record against the pinned golden under goldens/ with renoc_golden_diff
# (integer fields exact, temperatures tolerance-checked, *_ms timing
# skipped).
# The Release pass also runs renoc_lint over the tree (repo invariants:
# hot-region allocations, raw randomness, ring-buffer modulo, engine hash
# maps, route-table rebuilds in hot regions, non-atomic artifact writes,
# untagged deferred-work markers — see tools/lint_core.hpp), then
# scripts/reachability.sh (every library function some production
# executable links, or marked "renoc-test-only").
# Timing of record is the repo benchmark: python3 perfbench/run.py.
# Usage: scripts/check.sh [--sanitize=<kind>] [extra cmake args...]
# (flags may appear in any argument position)
# --sanitize=<kind> replaces the Debug+Release matrix with one
# RelWithDebInfo pass instrumented via RENOC_SANITIZE=<kind> (address,
# undefined, thread, or a '+'-joined combo; undefined also turns on
# float-cast-overflow, which GCC's undefined set leaves out, and every
# kind adds libstdc++'s _GLIBCXX_ASSERTIONS bounds checks) running the
# full ctest — the same configuration the CI sanitizer jobs run.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

sanitize=""
cmake_args=()
for arg in "$@"; do
  case "${arg}" in
    --sanitize=*) sanitize="${arg#--sanitize=}" ;;
    *) cmake_args+=("${arg}") ;;
  esac
done

if [[ -n "${sanitize}" ]]; then
  build_dir="${repo_root}/build-check-san-${sanitize//+/-}"
  echo "== sanitize(${sanitize}): configure =="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRENOC_SANITIZE="${sanitize}" \
    -DRENOC_WERROR=ON \
    ${cmake_args[@]+"${cmake_args[@]}"}
  echo "== sanitize(${sanitize}): build =="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "== sanitize(${sanitize}): ctest =="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  echo "All sanitized checks passed (${sanitize})."
  exit 0
fi

for config in Debug Release; do
  build_dir="${repo_root}/build-check-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  echo "== ${config}: configure =="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${config}" \
    -DRENOC_WERROR=ON \
    ${cmake_args[@]+"${cmake_args[@]}"}
  echo "== ${config}: build =="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "== ${config}: ctest =="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  if [[ "${config}" == "Release" ]]; then
    echo "== ${config}: renoc_lint =="
    "${build_dir}/tools/renoc_lint" --root "${repo_root}" \
      --report "${build_dir}/lint-report.txt"
    echo "== ${config}: reachability =="
    "${repo_root}/scripts/reachability.sh"
  fi
done

echo "All checks passed."
