#!/usr/bin/env python3
"""Static analysis gate, run as the `verify_gate` ctest.

Aggregates the pure-script checks that need no build products:
  1. scripts/lint.py --self-test   (the lint's own rules still fire)
  2. scripts/lint.py               (the tree is clean)
  3. scripts/check_bench_json.py --self-test
                                   (the bench JSON validator still rejects
                                   seeded schema-v4 violations, duplicates
                                   included)
  4. scripts/check_bench_json.py   on every BENCH_*.json checked into the
     repo (benchmark reports committed as baselines). Zero such files is
     fine — the bench JSON contract is then exercised by the
     bench_json_schema test instead, which runs a real bench binary.

With EMBSR_REQUIRE_TIDY=1 in the environment, clang-tidy becomes a *hard*
stage: the binary must exist and .clang-tidy must parse (clang-tidy
--verify-config). Without the variable the stage is skipped with a notice,
matching the gcc-only default container.

With --serve-bench BIN (CMake passes the built bench_serve_chaos), also
runs the serving chaos driver at tiny scale under an EMBSR_FAILPOINTS spec
(injected scorer/store failures and forced sheds on top of the bench's own
fault phases) and validates the BENCH_serve_chaos.json sidecar it writes —
the gate's proof that the serving core survives chaos end to end.

Exits non-zero on the first failing stage. Stdlib only.
"""

import argparse
import os
import shutil
import subprocess
import sys


def run(argv, what, extra_env=None):
    print(f"verify_gate: {what}: {' '.join(argv)}", flush=True)
    env = None
    if extra_env:
        env = dict(os.environ)
        env.update(extra_env)
    proc = subprocess.run(argv, env=env)
    if proc.returncode != 0:
        print(f"verify_gate: FAILED at {what}")
        sys.exit(proc.returncode)


# The chaos spec the serve-bench stage runs under: scorer failures at a
# rate that trips the circuit breaker during bursts, transient store
# failures that exercise the retry path, occasional forced sheds, and an
# injected scorer stall — on top of the fault phases the bench itself
# scripts. Bounded (xN) so the run terminates in a sane state.
SERVE_CHAOS_ENV = {
    "EMBSR_BENCH_SCALE": "0.05",
    "EMBSR_FAILPOINTS": ("serve.score=0.2x100,serve.store_read=0.1x50,"
                         "serve.queue_full=0.05x20"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--serve-bench", metavar="BIN", default=None,
                        help="path to the built bench_serve_chaos binary; "
                             "when given, run it at tiny scale under an "
                             "EMBSR_FAILPOINTS chaos spec and validate the "
                             "BENCH_serve_chaos.json it emits")
    args = parser.parse_args()
    root = os.path.abspath(args.repo_root)
    scripts = os.path.join(root, "scripts")
    py = sys.executable

    run([py, os.path.join(scripts, "lint.py"), "--self-test"],
        "lint self-test")
    run([py, os.path.join(scripts, "lint.py"), "--repo-root", root], "lint")
    run([py, os.path.join(scripts, "check_bench_json.py"), "--self-test"],
        "bench JSON validator self-test")

    bench_jsons = []
    for dirpath, dirnames, names in os.walk(root):
        # Checked-in reports only: generated build trees are not the gate's
        # business (and contain stale bench output).
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(("build", ".git"))]
        bench_jsons.extend(
            os.path.join(dirpath, n) for n in names
            if n.startswith("BENCH_") and n.endswith(".json"))
    if bench_jsons:
        run([py, os.path.join(scripts, "check_bench_json.py")]
            + sorted(bench_jsons), "bench JSON schema")
    else:
        print("verify_gate: no checked-in BENCH_*.json (ok)")

    # clang-tidy is best-effort on the gcc-only default container, but a
    # toolchain that *has* it can promote the check to a hard failure.
    if os.environ.get("EMBSR_REQUIRE_TIDY") == "1":
        tidy = shutil.which("clang-tidy")
        if tidy is None:
            print("verify_gate: FAILED at clang-tidy: EMBSR_REQUIRE_TIDY=1 "
                  "but no clang-tidy binary on PATH")
            sys.exit(1)
        run([tidy, "--verify-config",
             f"--config-file={os.path.join(root, '.clang-tidy')}"],
            "clang-tidy config (required)")
    else:
        print("verify_gate: clang-tidy not required "
              "(set EMBSR_REQUIRE_TIDY=1 to make it a hard stage)")

    if args.serve_bench:
        run([py, os.path.join(scripts, "check_bench_json.py"),
             "--run", args.serve_bench],
            "serve chaos bench (faults injected, JSON validated)",
            extra_env=SERVE_CHAOS_ENV)

    print("verify_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
