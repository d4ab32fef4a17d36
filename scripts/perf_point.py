#!/usr/bin/env python3
"""Append one point to the perfbench trajectory.

    python3 scripts/perf_point.py [--seeds 1-3] [--out FILE]

Run from a full checkout with no EMBSR_* variable set. For each workload in
BENCHMARK.json and each seed, runs `perfbench/run.py --trace 0` at the
benchmark's run_seconds, one run after another. Then appends one JSON line:
the commit (and whether the tree had uncommitted changes), the seeds, per
workload each end-to-end metric's median, Q1 and Q3 across seeds plus the
operations attempted and failed, and the line totals of the tracked files
under src/, tests/ and scripts/, to --out (default
bench_history/perfbench.jsonl). A failed run aborts without writing.
The benchmark's own gate judges regressions; this script only records.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ inside perfbench/

import stats  # noqa: E402
from spread import seed_range  # noqa: E402


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def line_totals():
    """Lines of the tracked files under each of src/, tests/ and scripts/,
    as they stand in the working tree (so a dirty point counts its diff)."""
    totals = {}
    for top in ("src", "tests", "scripts"):
        lines = 0
        for path in git("ls-files", "--", top).splitlines():
            with open(os.path.join(ROOT, path), "rb") as f:
                lines += f.read().count(b"\n")
        totals[top] = lines
    return totals


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-3"))
    ap.add_argument("--out", default=os.path.join(ROOT, "bench_history",
                                                  "perfbench.jsonl"))
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [e["name"] for e in bench["end_to_end"]]

    workloads = {}
    for w in bench["workloads"]:
        values = {name: [] for name in names}
        attempted = failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w["name"], "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if out.returncode:
                sys.exit(f"{w['name']} seed {seed}: run.py exited "
                         f"{out.returncode}; no point recorded")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in names:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w['name']} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        workloads[w["name"]] = {"attempted": attempted, "failed": failed}
        for name in names:
            q1, med, q3 = stats.quartiles(values[name])
            workloads[w["name"]][name] = {"median": med, "q1": q1, "q3": q3}

    dirty = git("status", "--porcelain", "--untracked-files=no")
    point = {"commit": git("rev-parse", "HEAD"), "dirty": bool(dirty),
             "seeds": args.seeds, "run_seconds": bench["run_seconds"],
             "workloads": workloads, "lines": line_totals()}
    with open(args.out, "a") as f:
        f.write(json.dumps(point, sort_keys=True) + "\n")
    print(f"appended to {args.out}")


if __name__ == "__main__":
    main()
