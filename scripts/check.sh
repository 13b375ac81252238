#!/usr/bin/env bash
# One-shot tier-1 verify: configure, build, and run ctest in Debug and
# Release with warnings-as-errors and examples enabled. The engine guards
# are ctest cases: bit-exactness against the seed oracles in
# tests/support, steady-state allocations (alloc_guard_test), thread,
# shard and resume invariance of every sweep, and the degraded-fabric
# conservation law. So is the paper-records check: paper_goldens_test
# runs renoc_paper --smoke and diffs every PAPER_*.json record against the
# pinned golden under goldens/ with renoc_golden_diff (integer fields
# exact, temperatures tolerance-checked, *_ms timing skipped).
# The Release pass also runs renoc_lint over the tree (repo invariants:
# hot-region allocations, raw randomness, ring-buffer modulo, engine hash
# maps, route-table rebuilds in hot regions, non-atomic artifact writes,
# untagged deferred-work markers — see tools/lint_core.hpp) and a
# sweep-resume smoke: the renoc_sweep driver runs the NoC smoke sweep
# uninterrupted, then sharded with an injected mid-run crash (supervisor
# retries the dead shard and resumes from its checkpoint segments), and
# the BER smoke sweep (encode, AWGN channel, min-sum decode per block) at
# 1 and at 4 shards, as CI's sweep-resume job does; renoc_golden_diff must
# find each pair of artifacts identical outside the run-specific "driver"
# block.
# --skip-bench-smoke skips the sweep-resume smoke.
# Timing of record is the repo benchmark: python3 perfbench/run.py.
# Usage: scripts/check.sh [--skip-bench-smoke] [--sanitize=<kind>]
#                         [extra cmake args...]
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

bench_smoke=1
sanitize=""
cmake_args=()
for arg in "$@"; do
  case "${arg}" in
    --skip-bench-smoke) bench_smoke=0 ;;
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
    -DRENOC_BUILD_EXAMPLES=ON \
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
    -DRENOC_BUILD_EXAMPLES=ON \
    ${cmake_args[@]+"${cmake_args[@]}"}
  echo "== ${config}: build =="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "== ${config}: ctest =="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  if [[ "${config}" == "Release" ]]; then
    echo "== ${config}: renoc_lint =="
    "${build_dir}/tools/renoc_lint" --root "${repo_root}" \
      --report "${build_dir}/lint-report.txt"
  fi
  if [[ "${bench_smoke}" == 1 && "${config}" == "Release" ]]; then
    echo "== ${config}: sweep-resume smoke (crash, retry, resume, diff) =="
    rm -rf "${build_dir}/ckpt-check-baseline" "${build_dir}/ckpt-check-crash" \
      "${build_dir}/ckpt-check-ber1" "${build_dir}/ckpt-check-ber4"
    "${build_dir}/tools/renoc_sweep" --harness noc --preset smoke \
      --shards 1 --ckpt-dir "${build_dir}/ckpt-check-baseline" \
      --out "${build_dir}/SWEEP_noc_baseline.json"
    "${build_dir}/tools/renoc_sweep" --harness noc --preset smoke \
      --shards 4 --checkpoint-every 2 --inject-crash 1:1 \
      --ckpt-dir "${build_dir}/ckpt-check-crash" \
      --out "${build_dir}/SWEEP_noc_crashed.json"
    "${build_dir}/tools/renoc_golden_diff" --skip driver \
      "${build_dir}/SWEEP_noc_baseline.json" \
      "${build_dir}/SWEEP_noc_crashed.json"
    echo "== ${config}: BER sweep smoke (1 vs 4 shards, diff) =="
    "${build_dir}/tools/renoc_sweep" --harness ber --preset smoke \
      --shards 1 --ckpt-dir "${build_dir}/ckpt-check-ber1" \
      --out "${build_dir}/SWEEP_ber_1shard.json"
    "${build_dir}/tools/renoc_sweep" --harness ber --preset smoke \
      --shards 4 --ckpt-dir "${build_dir}/ckpt-check-ber4" \
      --out "${build_dir}/SWEEP_ber_4shard.json"
    "${build_dir}/tools/renoc_golden_diff" --skip driver \
      "${build_dir}/SWEEP_ber_1shard.json" \
      "${build_dir}/SWEEP_ber_4shard.json"
  fi
done

echo "All checks passed."
