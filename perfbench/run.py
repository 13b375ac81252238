#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload stream|study|noc_load|all \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (and through it the renoc library) in Release mode under
.bench_build/perfbench, then runs one workload for --seconds seconds of
measured passes. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs the three
workloads in turn and prints every metric of each.

Build output goes to stderr. Result records and Chrome traces are written
to .bench_build/perfbench/out. Exits non-zero, without a result line, if
the build or any run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stream", "study", "noc_load")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "renoc_perfbench")
# The compiler's temporary files stay inside the checkout too.
TMP_DIR = os.path.join(BUILD_DIR, "tmp")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout,
                              env=dict(os.environ, TMPDIR=TMP_DIR))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build():
    os.makedirs(TMP_DIR, exist_ok=True)
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "renoc_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload, args, sha):
    """Runs one workload; returns (stdout text, parsed result line)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", sha]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out")
    if done.returncode != 0:
        sys.stdout.write(done.stdout.rsplit("\n{", 1)[0])
        fail(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result line")
    return done.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    sha = git_sha()

    if args.workload != "all":
        text, _ = run_workload(args.workload, args, sha)
        sys.stdout.write(text)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        text, result = run_workload(workload, args, sha)
        sys.stdout.write(text.rsplit("\n{", 1)[0] + "\n\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
