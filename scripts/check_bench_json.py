#!/usr/bin/env python3
"""Validate BENCH_<name>.json sidecar files against the schema (v4).

Every bench binary in this repo writes a machine-readable report next to its
human-readable table (see BenchReport in bench/bench_common.h). This script
checks those reports structurally so CI catches a bench that silently stops
emitting results or breaks the JSON contract. Under EMBSR_PROF=1 the
profiler's totals arrive as `prof/...` gauges inside the `metrics` snapshot
and are checked like every other gauge.

The checker also rejects duplication the JSON layer would otherwise hide:
a key emitted twice anywhere in one file (e.g. the same scalar or bench name
written twice) and two result rows for the same (model, dataset) cell.

Usage:
  check_bench_json.py FILE [FILE ...]      validate existing report files
  check_bench_json.py --run BIN [ARG ...]  run a bench binary in a fresh
                                           temp dir, then validate every
                                           BENCH_*.json it produced
  check_bench_json.py --self-test          prove the validator still rejects
                                           seeded schema violations (the
                                           'threads' rules and both
                                           duplicate rules included) and
                                           accepts a well-formed report

Exits non-zero and prints one line per problem on failure. Stdlib only.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

SCHEMA_VERSION = 4

RESULT_KEYS = {
    "model": str,
    "dataset": str,
    "status": str,
    "fit_seconds": (int, float),
    "eval_seconds": (int, float),
    "hit": dict,
    "mrr": dict,
}


def _err(errors, path, msg):
    errors.append(f"{path}: {msg}")


class DuplicateKeyError(ValueError):
    pass


def _reject_duplicate_keys(pairs):
    """object_pairs_hook that refuses a key written twice in one object.

    json.load silently keeps the last value on duplicate keys, which would
    let a bench overwrite one scalar (or the bench name itself) with another
    of the same name and still validate. Surface it instead.
    """
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise DuplicateKeyError(f"duplicate key {k!r} within one object")
        seen.add(k)
    return dict(pairs)


def _check_number_map(errors, path, obj, where):
    """A {name: number} object, e.g. scalars or hit/mrr cutoff maps."""
    if not isinstance(obj, dict):
        _err(errors, path, f"{where} must be an object, got {type(obj).__name__}")
        return
    for k, v in obj.items():
        if v is not None and not isinstance(v, (int, float)):
            _err(errors, path, f"{where}[{k!r}] must be a number, got {v!r}")


# Scalars every serve-bench report must carry (bench names starting with
# "serve"): the chaos driver's headline numbers. Rates are fractions in
# [0, 1]; latency percentiles must be ordered; throughput non-negative.
SERVE_REQUIRED_SCALARS = (
    "latency_p50_ms",
    "latency_p99_ms",
    "qps",
    "shed_rate",
    "degraded_fraction",
)


def _check_serve_scalars(errors, path, doc):
    """Serve sidecar rules.

    The presence-based checks apply to *any* report that emits these keys,
    so a non-serve bench reusing the names still gets range-checked; the
    completeness check (all five keys) binds only benches named serve*.
    """
    scalars = doc.get("scalars")
    if not isinstance(scalars, dict):
        return
    bench = doc.get("bench")
    if isinstance(bench, str) and bench.startswith("serve"):
        for key in SERVE_REQUIRED_SCALARS:
            if key not in scalars:
                _err(errors, path, f"serve bench missing scalar {key!r}")

    def num(key):
        v = scalars.get(key)
        return v if isinstance(v, (int, float)) and not isinstance(v, bool) \
            else None

    for key in ("shed_rate", "degraded_fraction"):
        v = num(key)
        if v is not None and not 0.0 <= v <= 1.0:
            _err(errors, path,
                 f"scalars.{key} must be a fraction in [0, 1], got {v!r}")
    qps = num("qps")
    if qps is not None and qps < 0:
        _err(errors, path, f"scalars.qps must be non-negative, got {qps!r}")
    p50, p99 = num("latency_p50_ms"), num("latency_p99_ms")
    for key, v in (("latency_p50_ms", p50), ("latency_p99_ms", p99)):
        if v is not None and v < 0:
            _err(errors, path,
                 f"scalars.{key} must be non-negative, got {v!r}")
    if p50 is not None and p99 is not None and p50 > p99:
        _err(errors, path,
             f"scalars.latency_p50_ms ({p50!r}) exceeds "
             f"latency_p99_ms ({p99!r})")


def check_report(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_reject_duplicate_keys)
    except DuplicateKeyError as e:
        _err(errors, path, str(e))
        return
    except (OSError, json.JSONDecodeError) as e:
        _err(errors, path, f"not readable as JSON: {e}")
        return

    if not isinstance(doc, dict):
        _err(errors, path, "top level must be an object")
        return

    if doc.get("schema_version") != SCHEMA_VERSION:
        _err(errors, path,
             f"schema_version must be {SCHEMA_VERSION}, "
             f"got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        _err(errors, path, "missing or empty 'bench' name")
    else:
        expected = f"BENCH_{doc['bench']}.json"
        if os.path.basename(path) != expected:
            _err(errors, path, f"file name should be {expected}")

    # Optional: the par:: pool's lane count at report time. Older reports
    # predate the field; when present it must be a positive integer.
    if "threads" in doc:
        threads = doc["threads"]
        if not isinstance(threads, int) or isinstance(threads, bool) \
                or threads < 1:
            _err(errors, path,
                 f"'threads' must be a positive integer, got {threads!r}")

    workload = doc.get("workload")
    if not isinstance(workload, dict):
        _err(errors, path, "missing 'workload' object")
    else:
        for key in ("bench_scale", "dataset_scale"):
            if not isinstance(workload.get(key), (int, float)):
                _err(errors, path, f"workload.{key} must be a number")

    if not isinstance(doc.get("wall_seconds"), (int, float)):
        _err(errors, path, "wall_seconds must be a number")
    elif doc["wall_seconds"] < 0:
        _err(errors, path, "wall_seconds must be non-negative")

    results = doc.get("results")
    if not isinstance(results, list):
        _err(errors, path, "'results' must be an array")
        results = []
    seen_cells = set()
    for i, r in enumerate(results):
        if isinstance(r, dict) and isinstance(r.get("model"), str) \
                and isinstance(r.get("dataset"), str):
            cell = (r["model"], r["dataset"])
            if cell in seen_cells:
                _err(errors, path,
                     f"results[{i}] duplicates cell "
                     f"(model={cell[0]!r}, dataset={cell[1]!r})")
            seen_cells.add(cell)
        if not isinstance(r, dict):
            _err(errors, path, f"results[{i}] must be an object")
            continue
        for key, want in RESULT_KEYS.items():
            if key not in r:
                _err(errors, path, f"results[{i}] missing key {key!r}")
            elif not isinstance(r[key], want):
                _err(errors, path,
                     f"results[{i}].{key} has wrong type "
                     f"({type(r[key]).__name__})")
        status = r.get("status")
        if isinstance(status, str) and status not in ("ok", "failed"):
            _err(errors, path,
                 f"results[{i}].status must be 'ok' or 'failed', "
                 f"got {status!r}")
        if status == "failed":
            # A failed cell carries an error string and may have empty
            # hit/mrr maps; an ok cell must actually report metrics.
            if not isinstance(r.get("error"), str) or not r.get("error"):
                _err(errors, path,
                     f"results[{i}] is failed but has no 'error' string")
        elif status == "ok":
            if "error" in r:
                _err(errors, path,
                     f"results[{i}] is ok but carries an 'error'")
            for cutoffs in ("hit", "mrr"):
                if isinstance(r.get(cutoffs), dict) and not r[cutoffs]:
                    _err(errors, path,
                         f"results[{i}].{cutoffs} is empty on an ok cell")
        for cutoffs in ("hit", "mrr"):
            if isinstance(r.get(cutoffs), dict):
                _check_number_map(errors, path, r[cutoffs],
                                  f"results[{i}].{cutoffs}")
                for k in r[cutoffs]:
                    if not k.isdigit():
                        _err(errors, path,
                             f"results[{i}].{cutoffs} cutoff {k!r} "
                             "is not an integer")

    _check_number_map(errors, path, doc.get("scalars", {}), "scalars")
    _check_serve_scalars(errors, path, doc)

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        _err(errors, path, "missing 'metrics' snapshot object")
    else:
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                _err(errors, path, f"metrics.{section} missing")
        _check_number_map(errors, path, metrics.get("counters", {}),
                          "metrics.counters")
        _check_number_map(errors, path, metrics.get("gauges", {}),
                          "metrics.gauges")
        hists = metrics.get("histograms", {})
        if not isinstance(hists, dict):
            _err(errors, path, "metrics.histograms must be an object")
            hists = {}
        for name, h in hists.items():
            if not isinstance(h, dict):
                _err(errors, path, f"histogram {name!r} must be an object")
                continue
            bounds = h.get("bounds")
            counts = h.get("counts")
            if not isinstance(bounds, list) or not isinstance(counts, list):
                _err(errors, path,
                     f"histogram {name!r} needs 'bounds' and 'counts' arrays")
                continue
            if len(counts) != len(bounds) + 1:
                _err(errors, path,
                     f"histogram {name!r}: len(counts)={len(counts)} != "
                     f"len(bounds)+1={len(bounds) + 1}")
            if isinstance(h.get("count"), int) and sum(counts) != h["count"]:
                _err(errors, path,
                     f"histogram {name!r}: bucket counts sum to "
                     f"{sum(counts)}, 'count' says {h['count']}")

    # A report with neither results nor scalars carries no data at all;
    # flag it (bench_micro_substrate still has its metrics snapshot, and
    # google-benchmark owns its timing numbers, so metrics-only is fine
    # when results/scalars are both present-but-empty only for that bench).
    if not results and not doc.get("scalars") and not doc.get("metrics"):
        _err(errors, path, "report carries no results, scalars, or metrics")

    return doc


def check_files(paths, errors):
    """Validate each file and reject a bench name reused across files.

    Two reports claiming the same bench name in one invocation means one of
    them would silently shadow the other in any aggregation keyed on the
    name.
    """
    seen_names = {}
    for path in paths:
        doc = check_report(path, errors)
        name = doc.get("bench") if isinstance(doc, dict) else None
        if isinstance(name, str) and name:
            if name in seen_names:
                _err(errors, path,
                     f"duplicate bench name {name!r} "
                     f"(already used by {seen_names[name]})")
            else:
                seen_names[name] = path


def run_and_collect(argv):
    """Run a bench binary in a fresh temp dir; return produced report paths."""
    binary = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory(prefix="embsr_bench_json_") as tmp:
        env = dict(os.environ, EMBSR_BENCH_JSON_DIR=tmp)
        proc = subprocess.run([binary] + argv[1:], env=env, cwd=tmp,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"{binary}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        reports = sorted(glob.glob(os.path.join(tmp, "BENCH_*.json")))
        if not reports:
            print(f"{binary}: produced no BENCH_*.json in {tmp}",
                  file=sys.stderr)
            return 1
        errors = []
        check_files(reports, errors)
        for e in errors:
            print(e, file=sys.stderr)
        if not errors:
            for path in reports:
                print(f"ok: {os.path.basename(path)}")
        return 1 if errors else 0


# ---- Self-test ---------------------------------------------------------------


def _valid_report():
    """A minimal report that must validate cleanly."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "self_test",
        "threads": 4,
        "workload": {"bench_scale": 1.0, "dataset_scale": 1.0},
        "wall_seconds": 0.5,
        "results": [{
            "model": "S-POP",
            "dataset": "synth",
            "status": "ok",
            "fit_seconds": 0.1,
            "eval_seconds": 0.1,
            "hit": {"20": 0.5},
            "mrr": {"20": 0.25},
        }],
        "scalars": {},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def _check_doc(doc, name):
    """Validates `doc` written to a correctly-named temp file."""
    errors = []
    with tempfile.TemporaryDirectory(prefix="embsr_bench_selftest_") as tmp:
        path = os.path.join(tmp, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        check_report(path, errors)
    return errors


def self_test():
    failures = []

    def expect_clean(doc, label):
        errors = _check_doc(doc, doc.get("bench", "self_test"))
        if errors:
            failures.append(f"{label}: unexpectedly rejected: {errors}")

    def expect_rejected(doc, label, needle):
        errors = _check_doc(doc, doc.get("bench", "self_test"))
        if not any(needle in e for e in errors):
            failures.append(
                f"{label}: expected an error containing {needle!r}, "
                f"got {errors}")

    expect_clean(_valid_report(), "valid report")

    # 'threads' is optional, but when present it must be a positive integer
    # (the par:: pool's lane count can never be 0, negative, fractional,
    # boolean, or a spelled-out word).
    absent = _valid_report()
    del absent["threads"]
    expect_clean(absent, "threads absent")
    for bad in ("four", 0, -1, True, 1.5, None):
        doc = _valid_report()
        doc["threads"] = bad
        expect_rejected(doc, f"threads={bad!r}",
                        "'threads' must be a positive integer")

    # Core schema rules the CI gate leans on.
    doc = _valid_report()
    doc["schema_version"] = SCHEMA_VERSION - 1
    expect_rejected(doc, "old schema_version", "schema_version must be")
    doc = _valid_report()
    doc["results"][0]["status"] = "failed"
    expect_rejected(doc, "failed without error", "has no 'error' string")
    doc = _valid_report()
    doc["results"][0]["hit"] = {}
    expect_rejected(doc, "empty hit map on ok cell", "is empty on an ok cell")

    # Serve sidecar rules: a serve* bench must carry the headline scalars,
    # rates must be fractions, and the latency percentiles must be ordered.
    def _serve_report():
        doc = _valid_report()
        doc["bench"] = "serve_chaos"
        doc["results"] = []
        doc["scalars"] = {
            "latency_p50_ms": 5.0,
            "latency_p99_ms": 40.0,
            "qps": 800.0,
            "shed_rate": 0.1,
            "degraded_fraction": 0.05,
        }
        return doc

    expect_clean(_serve_report(), "valid serve report")
    doc = _serve_report()
    del doc["scalars"]["shed_rate"]
    expect_rejected(doc, "serve report without shed_rate",
                    "serve bench missing scalar 'shed_rate'")
    doc = _serve_report()
    doc["scalars"]["degraded_fraction"] = 1.5
    expect_rejected(doc, "degraded_fraction out of range",
                    "must be a fraction in [0, 1]")
    doc = _serve_report()
    doc["scalars"]["shed_rate"] = -0.1
    expect_rejected(doc, "negative shed_rate",
                    "must be a fraction in [0, 1]")
    doc = _serve_report()
    doc["scalars"]["qps"] = -1.0
    expect_rejected(doc, "negative qps", "scalars.qps must be non-negative")
    doc = _serve_report()
    doc["scalars"]["latency_p50_ms"] = 50.0
    doc["scalars"]["latency_p99_ms"] = 5.0
    expect_rejected(doc, "inverted latency percentiles",
                    "exceeds latency_p99_ms")
    # A non-serve bench that happens to emit one of the keys still gets the
    # range check, but not the completeness requirement.
    doc = _valid_report()
    doc["scalars"] = {"shed_rate": 2.0}
    expect_rejected(doc, "non-serve bench with bad shed_rate",
                    "must be a fraction in [0, 1]")
    doc = _valid_report()
    doc["scalars"] = {"qps": 100.0}
    expect_clean(doc, "non-serve bench with only qps")

    # Duplicate detection: a (model, dataset) cell reported twice in one
    # file, and a JSON key written twice in one object.
    doc = _valid_report()
    doc["results"].append(dict(doc["results"][0]))
    expect_rejected(doc, "duplicate result cell", "duplicates cell")
    with tempfile.TemporaryDirectory(prefix="embsr_bench_selftest_") as tmp:
        dup_path = os.path.join(tmp, "BENCH_self_test.json")
        text = json.dumps(_valid_report())
        # Splice a second 'scalars' key into the top-level object.
        text = text.replace('"scalars": {}',
                            '"scalars": {}, "scalars": {"x": 1}', 1)
        with open(dup_path, "w", encoding="utf-8") as f:
            f.write(text)
        errors = []
        check_report(dup_path, errors)
        if not any("duplicate key 'scalars'" in e for e in errors):
            failures.append(
                f"duplicate JSON key: expected rejection, got {errors}")

    # Duplicate bench names across files in one invocation.
    with tempfile.TemporaryDirectory(prefix="embsr_bench_selftest_") as tmp:
        os.makedirs(os.path.join(tmp, "a"))
        os.makedirs(os.path.join(tmp, "b"))
        paths = []
        for sub in ("a", "b"):
            p = os.path.join(tmp, sub, "BENCH_self_test.json")
            with open(p, "w", encoding="utf-8") as f:
                json.dump(_valid_report(), f)
            paths.append(p)
        errors = []
        check_files(paths, errors)
        if not any("duplicate bench name 'self_test'" in e for e in errors):
            failures.append(
                f"duplicate bench name: expected rejection, got {errors}")
        errors = []
        check_files(paths[:1], errors)
        if errors:
            failures.append(
                f"single file unexpectedly rejected: {errors}")

    for msg in failures:
        print(f"self-test: {msg}", file=sys.stderr)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    if argv[0] == "--self-test":
        return self_test()
    if argv[0] == "--run":
        if len(argv) < 2:
            print("--run needs a binary path", file=sys.stderr)
            return 2
        return run_and_collect(argv[1:])
    errors = []
    check_files(argv, errors)
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        for path in argv:
            print(f"ok: {path}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
