#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 scripts/perf_pairs.py PARENT [CHANGE]

Exports both git revisions (CHANGE defaults to HEAD) with `git archive`
into build-perf-pairs/<commit>/ and runs
`python3 perfbench/run.py --workload all` in each export for 10 pairs,
alternating which side runs first. For every workload and end-to-end
metric that BENCHMARK.json declares it then prints each side's median and
quartiles, how many pairs the change won (ties count for neither side),
whether the medians differ by more than the parent's interquartile range
(the rule a claimed gain must pass), and a no-regression verdict against
the metric's relative bound in BENCHMARK.json:

    WORSE       the change's median is worse than the parent's by more
                than the bound;
    unresolved  the parent's IQR is wider than the bound, and not every
                change run beats every parent run, so a regression
                within the noise cannot be ruled out;
    ok          otherwise.

Each export builds its own benchmark tree once, in its .bench_build/; a
second invocation on the same commits reuses them. perfbench's own output
goes to build-perf-pairs/<commit>/perf_pairs.log, and every run's result
line to build-perf-pairs/pairs-<parent>-<change>.json. To measure uncommitted
work, stage it and pass `$(git stash create)`, a commit of the working
tree that leaves the tree and the branch as they are.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

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


def run_once(dest):
    """One `--workload all` run; returns its result line."""
    log_path = os.path.join(dest, "perf_pairs.log")
    with open(log_path, "a") as log:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all"],
            cwd=dest, stdout=subprocess.PIPE, stderr=log, text=True)
    if done.returncode != 0:
        fail(f"perfbench failed in {dest}; see {log_path}")
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def main():
    if len(sys.argv) not in (2, 3) or sys.argv[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    parent_rev = sys.argv[1]
    change_rev = sys.argv[2] if len(sys.argv) == 3 else "HEAD"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    sides = {"parent": export(parent_rev), "change": export(change_rev)}
    for side, (commit, _) in sides.items():
        print(f"{side}: {commit}")
    results = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            results[side].append(run_once(sides[side][1]))
        print(f"pair {pair + 1}/{PAIRS} done ({order[0]} first)",
              file=sys.stderr)

    tag = f"{sides['parent'][0][:12]}-{sides['change'][0][:12]}"
    raw_path = os.path.join(OUT_DIR, f"pairs-{tag}.json")
    with open(raw_path, "w") as f:
        json.dump(results, f)
    print(f"every run's result line: {raw_path}")
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(1 for r in runs if r["correct"] is not True)
        print(f"{side}: {len(runs)} runs, {failed} failed operations, "
              f"{incorrect} runs with incorrect output")

    print(f"{'workload':<9} {'metric':<30} {'parent median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34}{'delta':>7} {'wins':>6}"
          f"  gap > parent IQR  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
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


if __name__ == "__main__":
    main()
