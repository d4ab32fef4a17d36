#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload serve-embsr --seeds 1-10 [--seconds 12]

Runs perfbench/run.py once per seed (one after another, untraced) and
prints, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1 as a share of the median) against the metric's bound in
BENCHMARK.json. Exits 1 if a spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    values = {e["name"]: [] for e in bench["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if out.returncode:
            sys.exit(f"seed {seed}: run.py exited {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    ok = True
    for e in bench["end_to_end"]:
        q1, med, q3 = stats.quartiles(values[e["name"]])
        s = stats.spread(values[e["name"]])
        verdict = "ok" if s <= e["bound"] / 3 else (
            "within bound" if s <= e["bound"] else "TOO WIDE")
        if e["name"] != "setup_s" and s > e["bound"]:
            ok = False
        print(f"{args.workload} {e['name']:<18} median {med:.5g} "
              f"q1 {q1:.5g} q3 {q3:.5g} spread {s:.3f} "
              f"(bound {e['bound']}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
