#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 scripts/perf_pairs.py [--seed N | --paper] PARENT [CHANGE]

Exports both git revisions (CHANGE defaults to HEAD) with `git archive`
into build-perf-pairs/<commit>/ and runs
`python3 perfbench/run.py --workload all --seed N` (N defaults to
perfbench's seed, 1) in each export for 10 pairs, alternating which side
runs first. For every workload and end-to-end metric that BENCHMARK.json
declares it then prints each side's median and quartiles, how many pairs
the change won (ties count for neither side), whether the medians differ
by more than the parent's interquartile range (the rule a claimed gain
must pass), and a no-regression verdict against the metric's relative
bound in BENCHMARK.json:

    WORSE       the change's median is worse than the parent's by more
                than the bound;
    unresolved  the parent's IQR is wider than the bound, and not every
                change run beats every parent run, so a regression
                within the noise cannot be ruled out;
    ok          otherwise.

--seed N lets a claim be rechecked on a seed that was not used while
making it. --paper times the full-scale paper run instead: each export
builds renoc_paper (Release, tests off, in its build-perf-paper/) and runs
`renoc_paper --json-dir DIR` in the same alternating pairs. It prints the
wall time and peak RSS with the same columns, with the verdict against
BENCHMARK.json's wall_s and peak_rss_mb bounds, and whether both sides
wrote byte-identical records outside `_ms"` lines.

Each export builds its own benchmark tree once, in its .bench_build/; a
second invocation on the same commits reuses them. perfbench's own output
goes to build-perf-pairs/<commit>/perf_pairs.log, and every run's result
line to build-perf-pairs/pairs-<parent>-<change>[-seedN].json
(paper-<parent>-<change>.json with --paper). To measure uncommitted work,
stage it and pass `$(git stash create)`, a commit of the working tree
that leaves the tree and the branch as they are.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PAIRS = 10
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "build-perf-pairs")


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def export(rev):
    """Returns (commit, directory) of an exported copy of `rev`."""
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
         rev + "^{commit}"], capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{rev} is not a commit")
    commit = done.stdout.strip()
    dest = os.path.join(OUT_DIR, commit)
    if not os.path.isdir(dest):
        partial = dest + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", partial],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail(f"could not export {commit}")
        os.rename(partial, dest)
    return commit, dest


def run_once(dest, seed):
    """One `--workload all` run; returns its result line."""
    log_path = os.path.join(dest, "perf_pairs.log")
    with open(log_path, "a") as log:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all",
             "--seed", str(seed)],
            cwd=dest, stdout=subprocess.PIPE, stderr=log, text=True)
    if done.returncode != 0:
        fail(f"perfbench failed in {dest}; see {log_path}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def build_paper(dest):
    """Builds renoc_paper in the export; returns the binary's path."""
    build_dir = os.path.join(dest, "build-perf-paper")
    log_path = os.path.join(dest, "perf_pairs.log")
    with open(log_path, "a") as log:
        for cmd in (["cmake", "-S", dest, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DRENOC_BUILD_TESTS=OFF"],
                    ["cmake", "--build", build_dir, "--target",
                     "renoc_paper", "-j", "4"]):
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"building renoc_paper failed in {dest}; "
                     f"see {log_path}")
    return os.path.join(build_dir, "bench", "renoc_paper")


def time_paper(binary, records):
    """One full-scale run into `records`; returns its wall_s, peak_rss_mb."""
    shutil.rmtree(records, ignore_errors=True)
    os.makedirs(records)
    start = time.perf_counter()
    child = subprocess.Popen([binary, "--json-dir", records],
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"{binary} exited with {child.returncode}")
    return {"wall_s": {"value": wall},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0}}


def records_identical(a, b):
    """True if both record sets match outside lines naming a `_ms` key."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name)) as fa, \
                open(os.path.join(b, name)) as fb:
            if ([line for line in fa if '_ms"' not in line] !=
                    [line for line in fb if '_ms"' not in line]):
                return False
    return True


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, lower, bound):
    """WORSE, unresolved or ok for one metric (see the module docstring)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    margin = bound * abs(p_med)
    if (c_med - p_med if lower else p_med - c_med) > margin:
        return "WORSE"
    all_beat = (max(change) < min(parent) if lower
                else min(change) > max(parent))
    if p_q3 - p_q1 > margin and not all_beat:
        return "unresolved"
    return "ok"


def report(results, rows):
    """Prints the comparison table over `rows` of (workload, metric)."""
    print(f"{'workload':<9} {'metric':<30} {'parent median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34}{'delta':>7} {'wins':>6}"
          f"  gap > parent IQR  verdict")
    for workload, metric in rows:
        key = f"{workload}/{metric['name']}"
        parent = [r["metrics"][key]["value"] for r in results["parent"]]
        change = [r["metrics"][key]["value"] for r in results["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        delta = (c_med - p_med) / p_med * 100 if p_med else float("nan")
        beyond = abs(c_med - p_med) > p_q3 - p_q1
        label = f"{metric['name']} ({metric['unit']})"
        parent_col = f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
        change_col = f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
        print(f"{workload:<9} {label:<30} {parent_col:<34}"
              f"{change_col:<34}{delta:>+6.1f}% {wins:>3}/{PAIRS}"
              f"  {'yes' if beyond else 'no':<16}"
              f"  {verdict(parent, change, lower, metric['bound'])}")


def main():
    parser = argparse.ArgumentParser(
        usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--paper", action="store_true")
    args = parser.parse_args()
    if args.seed is not None and (args.paper or args.seed < 0):
        parser.error("--seed takes N >= 0 and does not apply to --paper")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    sides = {"parent": export(args.parent), "change": export(args.change)}
    for side, (commit, _) in sides.items():
        print(f"{side}: {commit}")
    if args.paper:
        binaries = {side: build_paper(dest)
                    for side, (_, dest) in sides.items()}

        def run(side):
            records = os.path.join(sides[side][1], "perf-paper-records")
            result = time_paper(binaries[side], records)
            return {"metrics": {f"paper/{k}": v for k, v in result.items()}}
    else:
        seed = 1 if args.seed is None else args.seed

        def run(side):
            return run_once(sides[side][1], seed)

    results = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            results[side].append(run(side))
        print(f"pair {pair + 1}/{PAIRS} done ({order[0]} first)",
              file=sys.stderr)

    tag = f"{sides['parent'][0][:12]}-{sides['change'][0][:12]}"
    if args.paper:
        raw_path = os.path.join(OUT_DIR, f"paper-{tag}.json")
    elif args.seed is None:
        raw_path = os.path.join(OUT_DIR, f"pairs-{tag}.json")
    else:
        raw_path = os.path.join(OUT_DIR, f"pairs-{tag}-seed{args.seed}.json")
    with open(raw_path, "w") as f:
        json.dump(results, f)
    print(f"every run's result line: {raw_path}")

    if args.paper:
        same = records_identical(
            *(os.path.join(dest, "perf-paper-records")
              for _, dest in sides.values()))
        print("records byte-identical outside _ms lines: "
              f"{'yes' if same else 'NO'}")
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        report(results, [("paper", metrics["wall_s"]),
                         ("paper", metrics["peak_rss_mb"])])
        return
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(1 for r in runs if r["correct"] is not True)
        print(f"{side}: {len(runs)} runs, {failed} failed operations, "
              f"{incorrect} runs with incorrect output")
    report(results, [(w["name"], metric) for w in bench["workloads"]
                     for metric in bench["end_to_end"]])


if __name__ == "__main__":
    main()
