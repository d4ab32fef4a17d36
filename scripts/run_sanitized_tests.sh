#!/usr/bin/env bash
# Sanitizer matrix runner: builds the test suite under one or more sanitizer
# configs in dedicated build directories and runs ctest for each, teeing
# per-config logs. A sanitizer report aborts the offending test
# (-fno-sanitize-recover / halt_on_error), so a green run means no detected
# issue on the paths the tests exercise.
#
# Usage: scripts/run_sanitized_tests.sh [CONFIG ...] [-- ctest args...]
#   CONFIG: address | thread | plain | contracts
#           (default: address thread plain contracts)
#   e.g. scripts/run_sanitized_tests.sh thread -- -R obs_race
#
# The ctest args reach every leg. A `-R <regex>` among them narrows each
# fixed-suite leg (below) to the tests matching both its own suite regex
# and the caller's; a leg that no test matches is skipped.
#
# The `plain` config (no sanitizer) builds with -DEMBSR_WERROR=ON, so a new
# compiler warning anywhere in the build fails the matrix.
#
# The `contracts` config builds with -DEMBSR_CHECK_CONTRACTS=ON (no
# sanitizer): every tensor kernel then verifies its declared per-chunk
# access sets against the DESIGN.md §11 partition contract before
# dispatching (src/par/access_check.h). Unlike TSan, the check runs on
# declarations, so it is deterministic at every thread count — the
# EMBSR_THREADS=4 leg exercises the same contracts under a real pool.
#
# Each config runs four ctest legs: the full suite, the concurrency-
# sensitive suites (BatchEquiv among them, which sets forward batch 4 and
# 16 itself) re-run under a forced EMBSR_THREADS=4 pool, the
# prof/par/autograd and gradient-check suites re-run with EMBSR_PROF=1
# EMBSR_THREADS=4 so the embsr::prof attribution counters race under a
# real pool (and under TSan in the `thread` config), and the ServeChaos
# smoke suite re-run with EMBSR_FAILPOINTS armed so the serving core's
# degraded/retry paths are exercised under each sanitizer.
#
# Build dirs: build-<config> (override root with EMBSR_SAN_BUILD_DIR).
# Logs: <build dir>/ctest-<config>.log.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${EMBSR_SAN_BUILD_DIR:-$repo_root}"
jobs="$(nproc 2>/dev/null || echo 4)"

configs=()
ctest_args=()  # everything after --, for the full-suite leg
leg_args=()    # the same less a -R filter, for the fixed-suite legs
caller_re=""   # the caller's -R filter, if any
parsing_configs=1
want_re=0
for arg in "$@"; do
  if [[ "$arg" == "--" ]]; then
    parsing_configs=0
  elif [[ $parsing_configs == 1 ]]; then
    case "$arg" in
      address|thread|plain|contracts) configs+=("$arg") ;;
      *) echo "unknown config '$arg' (want address|thread|plain|contracts)" >&2
         exit 2 ;;
    esac
  else
    ctest_args+=("$arg")
    if [[ $want_re == 1 ]]; then
      caller_re="$arg"
      want_re=0
    elif [[ "$arg" == "-R" || "$arg" == "--tests-regex" ]]; then
      want_re=1
    else
      leg_args+=("$arg")
    fi
  fi
done
if [[ ${#configs[@]} -eq 0 ]]; then
  configs=(address thread plain contracts)
fi

# halt_on_error pairs with -fno-sanitize-recover: first report kills the
# test. detect_leaks stays on by default where LeakSanitizer is available.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

# The sorted names of the tests in $build_dir that match ctest regex $1.
list_tests() {
  (cd "$build_dir" && ctest -N -R "$1") | sed -n 's/^ *Test *#[0-9]*: //p' |
    sort
}

# The -R filter of a fixed-suite leg whose suite regex is $1: that regex,
# or, under a caller's -R, an exact-name regex of the tests that match both
# (ctest 3.25 takes one -R and has no test-list file). Empty if none do.
leg_filter() {
  if [[ -z "$caller_re" ]]; then
    printf '%s' "$1"
    return
  fi
  local names
  names="$(comm -12 <(list_tests "$1") <(list_tests "$caller_re"))"
  if [[ -n "$names" ]]; then
    printf '^(%s)$' "$(sed 's/[].*^$+?()|[\\]/\\&/g' <<<"$names" |
      paste -sd '|')"
  fi
}

# run_leg LABEL LOG SUITE_REGEX [NAME=VALUE ...]: one fixed-suite leg, with
# the given environment.
run_leg() {
  local label="$1" log="$2" filter
  filter="$(leg_filter "$3")"
  shift 3
  if [[ -z "$filter" ]]; then
    echo "=== [$label] no test matches both -R filters; skipped"
    return 0
  fi
  echo "=== [$label] ctest $* (log: $log)"
  if (cd "$build_dir" && env "$@" ctest --output-on-failure -R "$filter" \
        ${leg_args[@]+"${leg_args[@]}"} 2>&1 | tee "$log"); then
    echo "=== [$label] PASS"
  else
    echo "=== [$label] FAIL"
    failed+=("$label")
  fi
}

failed=()
for config in "${configs[@]}"; do
  build_dir="$build_root/build-$config"
  contracts=OFF
  werror=OFF
  case "$config" in
    address)   sanitize=address ;;
    thread)    sanitize=thread ;;
    plain)     sanitize=off; werror=ON ;;
    contracts) sanitize=off; contracts=ON ;;
  esac
  echo "=== [$config] configuring $build_dir" \
       "(EMBSR_SANITIZE=$sanitize EMBSR_CHECK_CONTRACTS=$contracts" \
       "EMBSR_WERROR=$werror)"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEMBSR_SANITIZE="$sanitize" \
    -DEMBSR_CHECK_CONTRACTS="$contracts" \
    -DEMBSR_WERROR="$werror"
  cmake --build "$build_dir" -j "$jobs"

  log="$build_dir/ctest-$config.log"
  echo "=== [$config] ctest (log: $log)"
  if (cd "$build_dir" && ctest --output-on-failure \
        ${ctest_args[@]+"${ctest_args[@]}"} 2>&1 | tee "$log"); then
    echo "=== [$config] PASS"
  else
    echo "=== [$config] FAIL"
    failed+=("$config")
  fi

  # Second leg: re-run the concurrency-sensitive tests with a forced
  # 4-lane par:: pool so the parallel kernel/evaluator paths are exercised
  # under each sanitizer even on boxes where hardware_concurrency is 1
  # (where the default pool would be serial and TSan would see no threads).
  # ctest registers gtest-discovered names (suite.case), so the filter
  # matches the suites from par_test, kernel_equiv_test, determinism_test,
  # obs_race_test, access_sentinel_test, graph_audit_test (whose zoo audit
  # brackets its own prof session around parallel-kernel forward/backward
  # passes), batch_equiv_test (the batched collator/forward/backward
  # paths and the evaluator's chunk scheduling at forward batch 4 and 16),
  # inference_test (no-grad scoring across the zoo at 1 and 4 lanes;
  # its suites also match the third leg's `Autograd` prefix),
  # autograd_backward_test (the cached transposes and in-place weight
  # gradients of MatMul and ScoreItems, whose kernel splits rows across
  # the pool; also in the third leg) and graph_test's MultigraphMessageSum
  # (EMBSR's segment-sum message aggregation against the dense scatter
  # MatMul, at 1 and 4 lanes).
  run_leg "$config threads=4" "$build_dir/ctest-$config-threads4.log" \
    '^(ParFor|ThreadPool|KernelEquivTest|DeterminismTest|ObsRaceTest|AccessSentinel(DeathTest)?|GraphAudit|BatchEquiv|AutogradInference(DeathTest)?|AutogradBackward|MultigraphMessageSum)\.' \
    EMBSR_THREADS=4

  # Third leg: the embsr::prof attribution counters under live profiling.
  # EMBSR_PROF=1 arms the profiler at process start (prof/enabled.cc) in
  # every test binary, so the collector's shared shards, the mem tracker
  # atomics and the pool lane stats record while the 4-lane pool runs the
  # prof/par/autograd suites, the gradient checks and the op-table
  # checks: every op's cost function runs under the profiler. Under the thread config this
  # puts the profiler's concurrent record paths in front of TSan, which is
  # the point of the leg.
  run_leg "$config prof" "$build_dir/ctest-$config-prof.log" \
    '^(Prof|CostModel|MemTracker|ParFor|ThreadPool|Autograd|GradCheck|OpTable)' \
    EMBSR_PROF=1 EMBSR_THREADS=4

  # Fourth leg: chaos. The serve smoke suite (invariant-only assertions,
  # merges rather than clears armed failpoints) runs with EMBSR_FAILPOINTS
  # injecting scorer/store failures, forced sheds and a scorer stall — the
  # sanitizers watch the serving core's degraded paths, which clean tests
  # never reach. Only ServeChaos.* runs here: the exact-behavior serve
  # tests arm their own failpoints and would be perturbed by the env spec.
  run_leg "$config chaos" "$build_dir/ctest-$config-chaos.log" \
    '^ServeChaos\.' \
    EMBSR_FAILPOINTS='serve.score=0.3x200,serve.store_read=0.15x100,serve.queue_full=0.05x40'
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "sanitizer matrix FAILED for: ${failed[*]}"
  exit 1
fi
echo "sanitizer matrix passed for: ${configs[*]}"
