#!/usr/bin/env python3
"""Track BENCH_*.json trajectories across commits in a JSONL history file.

Each `record` invocation appends one line to the history file summarizing a
set of schema-v3 bench reports at one commit: wall seconds, profiler step
time, peak bytes, and roofline totals per bench. `report` prints the
trajectory so a drifting bench is visible across the PR sequence, and
`check` compares the newest entry against the previous one with a
percentage threshold so CI can refuse a silent slowdown.

Usage:
  bench_history.py record --history FILE [--commit SHA] [--note TEXT]
                   REPORT.json [REPORT.json ...]
  bench_history.py report --history FILE [--bench NAME]
  bench_history.py check  --history FILE [--max-regress-pct N]
                   [--min-seconds S]
  bench_history.py --self-test

`--commit` defaults to `git rev-parse HEAD` of the working directory (or
"unknown" outside a checkout). `check` ignores benches faster than
--min-seconds (default 0.05): sub-50ms wall times are scheduler noise.

Besides wall time, `check` compares every `planned_peak_bytes*` scalar
(the arena planner's per-model footprint from BENCH_graph_plan.json)
against the previous entry with the same threshold: planned memory is
deterministic, so growth past the threshold is a real graph change, not
noise — and unlike wall time it is not gated on --min-seconds.

Throughput scalars run the check in the inverse direction: for every
`sessions_per_sec*` scalar (BENCH_batch_smoke.json) a *drop* beyond
the threshold is the regression, since higher is better there.

Exit codes: 0 clean, 1 regression found (check), 2 usage/IO error.
Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time


def _git_head():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summarize(doc):
    """Reduce one BENCH report to the trajectory-relevant numbers."""
    profile = doc.get("profile", {})
    if not isinstance(profile, dict):
        profile = {}
    memory = profile.get("memory", {})
    roofline = profile.get("roofline", {})
    summary = {
        "wall_seconds": doc.get("wall_seconds"),
        "threads": doc.get("threads"),
        "bench_scale": doc.get("workload", {}).get("bench_scale"),
        "step_ms": profile.get("step_ms"),
        "peak_bytes": memory.get("peak_bytes")
        if isinstance(memory, dict) else None,
        "flops_total": roofline.get("flops_total")
        if isinstance(roofline, dict) else None,
    }
    scalars = doc.get("scalars")
    if isinstance(scalars, dict) and scalars:
        summary["scalars"] = scalars
    return summary


def load_history(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad history line: {e}")
    return entries


def cmd_record(opts):
    benches = {}
    for path in opts.reports:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_history: {path}: {e}", file=sys.stderr)
            return 2
        name = doc.get("bench") if isinstance(doc, dict) else None
        if not isinstance(name, str) or not name:
            print(f"bench_history: {path}: no 'bench' name", file=sys.stderr)
            return 2
        if name in benches:
            print(f"bench_history: duplicate bench {name!r} in one record",
                  file=sys.stderr)
            return 2
        benches[name] = _summarize(doc)
    entry = {
        "commit": opts.commit or _git_head(),
        "recorded_at_unix": int(time.time()),
        "benches": benches,
    }
    if opts.note:
        entry["note"] = opts.note
    os.makedirs(os.path.dirname(os.path.abspath(opts.history)), exist_ok=True)
    with open(opts.history, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {len(benches)} bench(es) at commit "
          f"{entry['commit'][:12]} -> {opts.history}")
    return 0


def cmd_report(opts):
    try:
        entries = load_history(opts.history)
    except ValueError as e:
        print(f"bench_history: {e}", file=sys.stderr)
        return 2
    if not entries:
        print(f"bench_history: no entries in {opts.history}")
        return 0
    names = sorted({n for e in entries for n in e.get("benches", {})})
    if opts.bench:
        if opts.bench not in names:
            print(f"bench_history: bench {opts.bench!r} not in history",
                  file=sys.stderr)
            return 2
        names = [opts.bench]
    for name in names:
        print(f"== {name}")
        print(f"{'commit':<14} {'wall_s':>10} {'step_ms':>10} "
              f"{'peak_MiB':>10}")
        for e in entries:
            s = e.get("benches", {}).get(name)
            if s is None:
                continue

            def fmt(v, spec):
                return format(v, spec) if isinstance(v, (int, float)) \
                    else format("-", ">10")

            peak = s.get("peak_bytes")
            peak_mib = peak / (1 << 20) if isinstance(peak, (int, float)) \
                else None
            print(f"{str(e.get('commit', '?'))[:12]:<14} "
                  f"{fmt(s.get('wall_seconds'), '>10.3f')} "
                  f"{fmt(s.get('step_ms'), '>10.2f')} "
                  f"{fmt(peak_mib, '>10.2f')}")
    return 0


def check_entries(entries, max_regress_pct, min_seconds):
    """Compare the newest entry's benches against the previous entry.

    Returns a list of regression strings; empty means clean. A bench that
    appears only in the newest entry has no baseline and is skipped.
    """
    if len(entries) < 2:
        return []
    prev, last = entries[-2], entries[-1]
    regressions = []
    for name, cur in sorted(last.get("benches", {}).items()):
        base = prev.get("benches", {}).get(name)
        if base is None:
            continue
        if base.get("bench_scale") != cur.get("bench_scale") \
                or base.get("threads") != cur.get("threads"):
            continue  # incomparable workloads
        b = base.get("wall_seconds")
        c = cur.get("wall_seconds")
        if isinstance(b, (int, float)) and isinstance(c, (int, float)) \
                and b >= min_seconds:
            pct = (c / b - 1.0) * 100.0
            if pct > max_regress_pct:
                regressions.append(
                    f"{name}: wall_seconds {b:.3f} -> {c:.3f} ({pct:+.1f}% > "
                    f"{max_regress_pct:.0f}%)")
        # Planned arena footprints are deterministic byte counts — no noise
        # floor; any growth past the threshold is a real graph change.
        base_scalars = base.get("scalars") or {}
        cur_scalars = cur.get("scalars") or {}
        for key in sorted(cur_scalars):
            if not key.startswith("planned_peak_bytes"):
                continue
            sb, sc = base_scalars.get(key), cur_scalars[key]
            if not isinstance(sb, (int, float)) or sb <= 0 \
                    or not isinstance(sc, (int, float)):
                continue
            pct = (sc / sb - 1.0) * 100.0
            if pct > max_regress_pct:
                regressions.append(
                    f"{name}: {key} {sb:.0f} -> {sc:.0f} ({pct:+.1f}% > "
                    f"{max_regress_pct:.0f}%)")
        # Throughput scalars regress in the *inverse* direction: a drop in
        # sessions/sec beyond the threshold means the batched path slowed.
        for key in sorted(cur_scalars):
            if not key.startswith("sessions_per_sec"):
                continue
            sb, sc = base_scalars.get(key), cur_scalars[key]
            if not isinstance(sb, (int, float)) or sb <= 0 \
                    or not isinstance(sc, (int, float)):
                continue
            pct = (1.0 - sc / sb) * 100.0
            if pct > max_regress_pct:
                regressions.append(
                    f"{name}: {key} {sb:.1f} -> {sc:.1f} ({pct:.1f}% drop > "
                    f"{max_regress_pct:.0f}%)")
    return regressions


def cmd_check(opts):
    try:
        entries = load_history(opts.history)
    except ValueError as e:
        print(f"bench_history: {e}", file=sys.stderr)
        return 2
    regressions = check_entries(entries, opts.max_regress_pct,
                                opts.min_seconds)
    for r in regressions:
        print(f"REGRESSION: {r}", file=sys.stderr)
    if regressions:
        return 1
    print(f"ok: {len(entries)} history entries, newest vs previous within "
          f"{opts.max_regress_pct:.0f}%")
    return 0


def _parser():
    p = argparse.ArgumentParser(
        description="Track BENCH_*.json trajectories across commits.")
    p.add_argument("--self-test", action="store_true")
    sub = p.add_subparsers(dest="cmd")
    rec = sub.add_parser("record")
    rec.add_argument("--history", required=True)
    rec.add_argument("--commit", default=None)
    rec.add_argument("--note", default=None)
    rec.add_argument("reports", nargs="+")
    rep = sub.add_parser("report")
    rep.add_argument("--history", required=True)
    rep.add_argument("--bench", default=None)
    chk = sub.add_parser("check")
    chk.add_argument("--history", required=True)
    chk.add_argument("--max-regress-pct", type=float, default=50.0)
    chk.add_argument("--min-seconds", type=float, default=0.05)
    return p


# ---- Self-test ---------------------------------------------------------------


def _fake_report(name, wall, step_ms, peak):
    return {
        "schema_version": 3,
        "bench": name,
        "threads": 1,
        "workload": {"bench_scale": 1.0, "dataset_scale": 0.5},
        "wall_seconds": wall,
        "results": [],
        "scalars": {},
        "profile": {"enabled": True, "step_ms": step_ms,
                    "memory": {"peak_bytes": peak},
                    "roofline": {"flops_total": 1e9}},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def self_test():
    failures = []
    parser = _parser()
    with tempfile.TemporaryDirectory(prefix="embsr_bench_history_") as tmp:
        history = os.path.join(tmp, "history.jsonl")

        def record(commit, wall):
            path = os.path.join(tmp, "BENCH_micro.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(_fake_report("micro", wall, wall * 1000.0,
                                       1 << 20), f)
            opts = parser.parse_args(
                ["record", "--history", history, "--commit", commit, path])
            return cmd_record(opts)

        if record("aaaa", 1.00) != 0:
            failures.append("record #1 failed")
        if record("bbbb", 1.05) != 0:
            failures.append("record #2 failed")

        opts = parser.parse_args(["check", "--history", history,
                                  "--max-regress-pct", "50"])
        if cmd_check(opts) != 0:
            failures.append("5% drift flagged at a 50% threshold")

        # The acceptance case: a 2x slowdown must fail the check.
        if record("cccc", 2.10) != 0:
            failures.append("record #3 failed")
        if cmd_check(opts) != 1:
            failures.append("2x slowdown not flagged")

        entries = load_history(history)
        if len(entries) != 3:
            failures.append(f"expected 3 history lines, got {len(entries)}")
        regs = check_entries(entries, 50.0, 0.05)
        if not any("micro" in r for r in regs):
            failures.append(f"check_entries missed the regression: {regs}")

        # Sub-min-seconds benches are noise, never regressions.
        fast = [
            {"commit": "x", "benches": {"tiny": {
                "wall_seconds": 0.001, "threads": 1, "bench_scale": 1.0}}},
            {"commit": "y", "benches": {"tiny": {
                "wall_seconds": 0.009, "threads": 1, "bench_scale": 1.0}}},
        ]
        if check_entries(fast, 50.0, 0.05):
            failures.append("sub-min-seconds bench flagged")

        # A planned-footprint jump is a regression even on a fast bench
        # (deterministic byte counts have no --min-seconds noise floor)...
        grown = [
            {"commit": "x", "benches": {"graph_plan": {
                "wall_seconds": 0.01, "threads": 1, "bench_scale": 1.0,
                "scalars": {"planned_peak_bytes/EMBSR": 1000.0}}}},
            {"commit": "y", "benches": {"graph_plan": {
                "wall_seconds": 0.01, "threads": 1, "bench_scale": 1.0,
                "scalars": {"planned_peak_bytes/EMBSR": 2100.0}}}},
        ]
        regs = check_entries(grown, 50.0, 0.05)
        if not any("planned_peak_bytes/EMBSR" in r for r in regs):
            failures.append(f"planned peak growth not flagged: {regs}")
        # ...while steady footprints stay quiet.
        grown[1]["benches"]["graph_plan"]["scalars"][
            "planned_peak_bytes/EMBSR"] = 1040.0
        if check_entries(grown, 50.0, 0.05):
            failures.append("steady planned peak flagged as regression")

        # A sessions/sec *drop* is a regression (inverse direction)...
        slowed = [
            {"commit": "x", "benches": {"batch_smoke": {
                "wall_seconds": 0.01, "threads": 1, "bench_scale": 1.0,
                "scalars": {"sessions_per_sec/EMBSR/b32": 1000.0}}}},
            {"commit": "y", "benches": {"batch_smoke": {
                "wall_seconds": 0.01, "threads": 1, "bench_scale": 1.0,
                "scalars": {"sessions_per_sec/EMBSR/b32": 400.0}}}},
        ]
        regs = check_entries(slowed, 50.0, 0.05)
        if not any("sessions_per_sec/EMBSR/b32" in r for r in regs):
            failures.append(f"sessions/sec drop not flagged: {regs}")
        # ...while a throughput *gain* of any size stays quiet.
        slowed[1]["benches"]["batch_smoke"]["scalars"][
            "sessions_per_sec/EMBSR/b32"] = 5000.0
        if check_entries(slowed, 50.0, 0.05):
            failures.append("sessions/sec gain flagged as regression")

        # Workload changes make entries incomparable, not regressions.
        rescaled = [
            {"commit": "x", "benches": {"micro": {
                "wall_seconds": 1.0, "threads": 1, "bench_scale": 1.0}}},
            {"commit": "y", "benches": {"micro": {
                "wall_seconds": 4.0, "threads": 1, "bench_scale": 4.0}}},
        ]
        if check_entries(rescaled, 50.0, 0.05):
            failures.append("rescaled workload flagged as regression")

        opts = parser.parse_args(["report", "--history", history])
        if cmd_report(opts) != 0:
            failures.append("report failed on a valid history")

    for msg in failures:
        print(f"self-test: {msg}", file=sys.stderr)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    opts = _parser().parse_args(argv)
    if opts.self_test:
        return self_test()
    if opts.cmd == "record":
        return cmd_record(opts)
    if opts.cmd == "report":
        return cmd_report(opts)
    if opts.cmd == "check":
        return cmd_check(opts)
    _parser().print_usage()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
