#!/usr/bin/env python3
"""Custom lint for the embsr tree: bans constructs the toolchain can't catch.

Rules (rule ids in parentheses):
  raw-new     `new` / `delete` outside smart pointers. The three leaked
              observability/failpoint singletons carry inline suppressions.
  rand        `rand()` / `srand()`: all randomness must flow through
              embsr::Rng so runs stay reproducible and resumable.
  getenv      `getenv` anywhere but src/util/env.cc: environment access is
              centralized so knobs are enumerable.
  env-prefix  environment knob names passed to GetEnv* must start with
              EMBSR_ (namespace hygiene for anything we read from the env).
  layer-dag   #include edges between src/ directories must follow the layer
              DAG (util at the bottom, verify at the top). An include that
              points up the DAG — e.g. util including nn — is an error.
  data-arith  pointer arithmetic on `.data()` outside the kernel layers
              (src/tensor, src/autograd). Byte-I/O code that needs it must
              justify with an inline suppression.
  todo-owner  TODO comments without an owner. `TODO(name): ...` survives;
              an ownerless TODO rots forever because nobody is on the hook
              for it.
  raw-chrono  direct std::chrono use outside src/util. All timing flows
              through embsr::NowNs (util/timer.h) — WallTimer, obs spans,
              profiler records and the serving clock all read it — so trace
              timestamps and profiler records share one time base and
              ad-hoc stopwatches can't drift from the instrumented paths.
  raw-resize  `.resize(` / `.Reshape(` outside src/tensor. Reshape's
              copy-on-grow bug class is exactly what the memory tracker
              (src/prof) caught; std::vector sizing in I/O or
              graph-building code must justify with an inline suppression
              so every site is audited.

Suppressions: append `// lint: allow(<rule-id>): <reason>` to the offending
line, or put it on the line directly above (it covers both). The reason is
mandatory — a bare allow() is itself an error.

Usage:
  lint.py [--repo-root PATH]   lint the tree (default: script's repo)
  lint.py --self-test          prove every rule still fires on a seeded
                               violation and stays quiet on clean code

Exit status: 0 clean, 1 violations (or self-test failure). Stdlib only.
"""

import argparse
import os
import re
import sys

# Directory-level layer DAG: src/<dir> may include headers only from itself
# and the listed layers. `robust/failpoint.h` is its own low layer
# ("failpoint") even though it lives in src/robust: it is the crash-injection
# primitive that nn/ and data/ are allowed to use, while the rest of robust/
# (checkpoint manager, degradation) sits above them.
LAYER_DEPS = {
    "util": set(),
    "obs": {"util"},
    "prof": {"obs", "util"},
    "par": {"obs", "prof", "util"},
    "tensor": {"par", "prof", "util"},
    "metrics": {"util"},
    "failpoint": {"util", "obs"},
    "graph": {"tensor", "util"},
    "autograd": {"tensor", "obs", "prof", "util"},
    "optim": {"autograd", "tensor", "obs", "util"},
    "nn": {"autograd", "tensor", "obs", "prof", "util", "failpoint"},
    "data": {"util", "failpoint"},
    "datagen": {"data", "obs", "util", "failpoint"},
    "robust": {"failpoint", "nn", "optim", "autograd", "tensor", "obs",
               "util"},
    "models": {"nn", "optim", "data", "graph", "metrics", "robust",
               "failpoint", "autograd", "tensor", "obs", "prof", "util"},
    "serve": {"models", "nn", "optim", "data", "graph", "metrics", "robust",
              "failpoint", "autograd", "tensor", "obs", "util"},
    "core": {"models", "nn", "optim", "data", "graph", "metrics", "robust",
             "failpoint", "autograd", "tensor", "obs", "util"},
    "train": {"core", "datagen", "models", "nn", "optim", "data", "graph",
              "metrics", "robust", "failpoint", "autograd", "tensor", "par",
              "obs", "util"},
    "verify": {"train", "core", "datagen", "models", "nn", "optim", "data",
               "graph", "metrics", "robust", "failpoint", "autograd",
               "tensor", "obs", "util"},
    "analyze": {"train", "core", "datagen", "models", "nn", "optim", "data",
                "graph", "metrics", "robust", "failpoint", "autograd",
                "tensor", "par", "obs", "prof", "util"},
}

SUPPRESS_RE = re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)(?P<reason>.*)")
INCLUDE_RE = re.compile(r'^\s*#include\s+"(?P<path>[a-z_]+/[^"]+)"')

# Matched against comment- and string-stripped lines.
RAW_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:]|(?<![\w.=])\bdelete\s")
RAND_RE = re.compile(r"(?<![\w.])s?rand\s*\(")
GETENV_RE = re.compile(r"(?<![\w.:])(?:std::)?getenv\s*\(")
ENV_CALL_RE = re.compile(r'GetEnv(?:Double|Int|String)\s*\(\s*"(?P<name>[^"]*)"')
DATA_ARITH_RE = re.compile(r"\.data\(\)\s*[+-]")
# Bare std::thread (the `(?!\s*::)` keeps std::thread::hardware_concurrency
# legal — querying the machine is fine, owning a thread is not).
RAW_THREAD_RE = re.compile(r"\bstd::thread\b(?!\s*::)")
# Matched against the raw line: TODO lives in comments, which the other
# rules strip. Owner must follow immediately in parens: TODO(name).
TODO_OWNER_RE = re.compile(r"\bTODO\b(?!\([A-Za-z0-9_.@-]+\))")
RAW_CHRONO_RE = re.compile(r"\bstd::chrono\b")
# The only directory allowed to read the clock directly; everyone else
# measures through embsr::NowNs or WallTimer.
CHRONO_EXEMPT_DIRS = ("util",)
RAW_RESIZE_RE = re.compile(r"\.(?:resize|Reshape)\s*\(")
# The only directory allowed to change a buffer's shape in place; see the
# raw-resize rule description.
RESIZE_EXEMPT_DIRS = ("tensor",)


def strip_comments(line):
    """Removes // and single-line /* */ comments (coarse, line-local)."""
    line = re.sub(r"/\*.*?\*/", "", line)
    line = re.sub(r"//.*", "", line)
    return line


def strip_code_line(line):
    """Removes string literals, then comments."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return strip_comments(line)


def include_layer(include_path):
    """Maps an include path to its lint layer, or None if out of scope."""
    first = include_path.split("/", 1)[0]
    if include_path == "robust/failpoint.h":
        return "failpoint"
    return first if first in LAYER_DEPS else None


def file_layer(rel_path):
    parts = rel_path.split(os.sep)
    if len(parts) < 3 or parts[0] != "src":
        return None
    if parts[1] == "robust" and parts[2] == "failpoint.cc":
        return "failpoint"
    if parts[1] == "robust" and parts[2] == "failpoint.h":
        return "failpoint"
    return parts[1] if parts[1] in LAYER_DEPS else None


def lint_file(rel_path, text):
    """Returns a list of (rel_path, line_no, rule, message) violations."""
    violations = []
    layer = file_layer(rel_path)
    in_env_cc = rel_path == os.path.join("src", "util", "env.cc")
    chrono_exempt = any(
        rel_path.startswith(os.path.join("src", d) + os.sep)
        for d in CHRONO_EXEMPT_DIRS)
    resize_exempt = any(
        rel_path.startswith(os.path.join("src", d) + os.sep)
        for d in RESIZE_EXEMPT_DIRS)

    carried = None  # suppression declared on the previous line
    for i, raw in enumerate(text.splitlines(), start=1):
        suppressed = carried
        carried = None
        m = SUPPRESS_RE.search(raw)
        if m:
            reason = m.group("reason").lstrip(": ").strip()
            if not reason:
                violations.append(
                    (rel_path, i, "bare-allow",
                     "lint suppression without a justification"))
                continue
            suppressed = m.group("rule")
            carried = suppressed  # also covers the following line

        def check(rule, message, line_no=i):
            if suppressed != rule:
                violations.append((rel_path, line_no, rule, message))

        code = strip_code_line(raw)

        inc = INCLUDE_RE.match(raw)
        if inc and layer is not None:
            target = include_layer(inc.group("path"))
            if (target is not None and target != layer
                    and target not in LAYER_DEPS[layer]):
                check("layer-dag",
                      f"src/{layer} may not include {inc.group('path')} "
                      f"(layer '{target}' is not below '{layer}')")

        if RAW_NEW_RE.search(code):
            check("raw-new",
                  "raw new/delete; use std::make_unique/std::make_shared "
                  "or justify a leaked singleton")
        if RAW_THREAD_RE.search(code):
            check("raw-thread",
                  "raw std::thread; go through par::For / par::ThreadPool "
                  "so EMBSR_THREADS governs all parallelism (the pool "
                  "itself carries the one sanctioned suppression)")
        if RAND_RE.search(code):
            check("rand",
                  "rand()/srand(); use embsr::Rng so runs are reproducible")
        if GETENV_RE.search(code) and not in_env_cc:
            check("getenv",
                  "getenv outside src/util/env.cc; add a GetEnv* helper")
        # Knob names live inside string literals, so this rule scans the
        # comment-stripped (but string-preserving) line.
        for env in ENV_CALL_RE.finditer(strip_comments(raw)):
            if not env.group("name").startswith("EMBSR_"):
                check("env-prefix",
                      f"env knob '{env.group('name')}' must start with "
                      "EMBSR_")
        if (DATA_ARITH_RE.search(code) and layer is not None
                and layer not in ("tensor", "autograd")):
            check("data-arith",
                  ".data() pointer arithmetic outside the kernel layers; "
                  "index via at()/vec() or justify byte-level I/O")
        if RAW_CHRONO_RE.search(code) and not chrono_exempt:
            check("raw-chrono",
                  "direct std::chrono outside src/util; time through "
                  "embsr::NowNs or WallTimer so every measurement shares "
                  "one clock")
        if RAW_RESIZE_RE.search(code) and not resize_exempt:
            check("raw-resize",
                  ".resize()/.Reshape() outside src/tensor; in-place shape "
                  "changes invite Reshape's copy-on-grow bug class — "
                  "construct at the final size, or justify container "
                  "sizing with an inline suppression")
        # TODOs live in comments, so this rule scans the raw line.
        if TODO_OWNER_RE.search(raw):
            check("todo-owner",
                  "TODO without an owner; write `TODO(name): ...` so "
                  "someone is on the hook for it")
    return violations


def iter_source_files(repo_root):
    for top in ("src", "bench", "examples"):
        for dirpath, _, names in os.walk(os.path.join(repo_root, top)):
            for name in sorted(names):
                if name.endswith((".cc", ".h")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, repo_root)


def lint_tree(repo_root):
    violations = []
    for rel in iter_source_files(repo_root):
        with open(os.path.join(repo_root, rel), encoding="utf-8") as f:
            violations.extend(lint_file(rel, f.read()))
    return violations


# ---- Self-test ---------------------------------------------------------------

# Each entry: (rule id, file path the snippet pretends to live at, snippet
# that MUST fire, snippet that MUST stay clean).
SELF_TEST_CASES = [
    ("raw-new", "src/nn/x.cc",
     "int* p = new int[3];",
     "auto p = std::make_unique<int[]>(3);"),
    ("raw-new", "src/nn/x.cc",
     "delete ptr;",
     "Module(const Module&) = delete;"),
    ("rand", "src/models/x.cc",
     "int r = rand() % 6;",
     "Tensor t = Tensor::RandUniform({2, 2}, -1.0f, 1.0f, &rng);"),
    ("getenv", "src/train/x.cc",
     'const char* v = getenv("EMBSR_FOO");',
     'const std::string v = GetEnvString("EMBSR_FOO", "");'),
    ("env-prefix", "src/obs/x.cc",
     'GetEnvInt("TRACE_DEPTH", 3);',
     'GetEnvInt("EMBSR_TRACE_DEPTH", 3);'),
    ("layer-dag", "src/util/x.cc",
     '#include "nn/layers.h"',
     '#include "util/status.h"'),
    ("layer-dag", "src/tensor/x.cc",
     '#include "autograd/ops.h"',
     '#include "tensor/tensor.h"'),
    ("data-arith", "src/models/x.cc",
     "float* p = t.data() + off;",
     "float v = t.at(off);"),
    ("raw-thread", "src/train/x.cc",
     "std::thread t([] { Work(); });",
     "int n = static_cast<int>(std::thread::hardware_concurrency());"),
    ("raw-thread", "src/obs/x.cc",
     "std::vector<std::thread> workers;",
     "par::For(0, n, 1, fn);"),
    ("layer-dag", "src/util/x.cc",
     '#include "par/thread_pool.h"',
     '#include "util/env.h"'),
    ("bare-allow", "src/nn/x.cc",
     "int* p = new int;  // lint: allow(raw-new):",
     "static X* x = new X();  // lint: allow(raw-new): leaked singleton"),
    ("todo-owner", "src/nn/x.cc",
     "// TODO: wire this into the trainer",
     "// TODO(ana): wire this into the trainer"),
    ("todo-owner", "src/models/x.cc",
     "int k = 0;  // TODO tune this",
     "int k = 0;  // tuned on the JD validation split"),
    ("layer-dag", "src/analyze/x.cc",
     '#include "verify/gradcheck.h"',
     '#include "train/model_zoo.h"'),
    ("raw-chrono", "src/models/x.cc",
     "auto t0 = std::chrono::steady_clock::now();",
     "WallTimer timer;"),
    ("raw-chrono", "bench/x.cc",
     "std::this_thread::sleep_for(std::chrono::milliseconds(5));",
     "const double secs = timer.Seconds();"),
    ("raw-chrono", "src/obs/x.cc",
     "const auto now = std::chrono::steady_clock::now();",
     "const int64_t now_ns = NowNs();"),
    ("raw-chrono", "src/prof/x.cc",
     "return std::chrono::duration_cast<std::chrono::nanoseconds>(d);",
     "const int64_t t0 = NowNs();"),
    ("layer-dag", "src/obs/x.cc",
     '#include "prof/op_profiler.h"',
     '#include "obs/metrics.h"'),
    ("layer-dag", "src/serve/x.cc",
     '#include "prof/op_profiler.h"',
     '#include "models/neural_model.h"'),
    ("raw-resize", "src/models/x.cc",
     "scores.resize(num_items);",
     "std::vector<float> scores(num_items, 0.0f);"),
    ("raw-resize", "src/autograd/x.cc",
     "Tensor g2 = g.Reshape({rows, cols});",
     "Tensor g2 = Transpose(g);"),
    ("raw-resize", "bench/x.cc",
     "sessions.resize(count);",
     "std::vector<Session> sessions(count);"),
]

# The raw-chrono / raw-resize exemption lists, pinned separately because the
# table above can only express "fires on bad / quiet on good" at one path.
CHRONO_EXEMPT_SNIPPET = "auto t0 = std::chrono::steady_clock::now();\n"
RESIZE_EXEMPT_SNIPPET = "data_.resize(new_elems);\n"


def self_test():
    failures = []
    for rule, path, bad, good in SELF_TEST_CASES:
        fired = [v[2] for v in lint_file(path, bad + "\n")]
        if rule not in fired:
            failures.append(f"rule '{rule}' did not fire on: {bad!r}")
        clean = [v for v in lint_file(path, good + "\n") if v[2] == rule]
        if clean:
            failures.append(f"rule '{rule}' false-positive on: {good!r}")
    exempt_paths = [os.path.join("src", d, "x.cc") for d in CHRONO_EXEMPT_DIRS]
    for path in exempt_paths:
        fired = [v for v in lint_file(path, CHRONO_EXEMPT_SNIPPET)
                 if v[2] == "raw-chrono"]
        if fired:
            failures.append(f"raw-chrono fired in exempt dir: {path}")
    resize_exempt_paths = [os.path.join("src", d, "x.cc")
                           for d in RESIZE_EXEMPT_DIRS]
    for path in resize_exempt_paths:
        fired = [v for v in lint_file(path, RESIZE_EXEMPT_SNIPPET)
                 if v[2] == "raw-resize"]
        if fired:
            failures.append(f"raw-resize fired in exempt dir: {path}")
    for msg in failures:
        print(f"self-test: {msg}")
    cases = (len(SELF_TEST_CASES) + len(exempt_paths)
             + len(resize_exempt_paths))
    print(f"self-test: {cases} cases, {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.repo_root)
    for rel, line, rule, message in violations:
        print(f"{rel}:{line}: [{rule}] {message}")
    print(f"lint: {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
