"""Statistics helpers of the end-to-end benchmark.

Kept free of I/O so perfbench/test_stats.py can pin them down:

* percentile: nearest-rank percentile that is withheld (None) unless at
  least ten samples lie beyond it;
* meets_slo / max_qps_at_slo / pool_rungs: the serving capacity rule,
  with linear interpolation where p99 crosses the latency limit;
* median / quartiles / spread: statistics across repeated runs, computed
  exactly as Python's statistics module does.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`, or None.

    None marks a failed request: it sorts above every latency. The value is
    withheld (None) unless at least `min_beyond` samples rank above it, so
    p99 needs 1000 samples and p50 needs 20.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q * n)  # 1-based
    if n - rank < min_beyond:
        return None
    ordered = sorted(math.inf if x is None else x for x in samples)
    return ordered[rank - 1]


def meets_slo(rung, slo_ms, max_failed):
    """A rung meets the SLO when its p99 (failed requests counted as
    missing the limit) is supported and within `slo_ms`, at most
    `max_failed` of its requests failed, and its queue did not grow: the
    backlog left when the last arrival was due is at most max(5, 5%) of the
    rung's requests."""
    sent = rung["sent"]
    p99 = percentile(rung["latency_ms"], 0.99)
    failed = sent - rung["succeeded"]
    return (p99 is not None and p99 <= slo_ms
            and failed <= max_failed * sent
            and rung["backlog"] <= max(5.0, 0.05 * sent))


def max_qps_at_slo(rungs, slo_ms, max_failed):
    """Highest offered rate meeting the SLO on a ladder of rungs.

    `rungs` are in ascending rate order; only rungs up to the first failing
    one count. Returns (rate, note). Between the last passing rung and the
    first failing one the rate is interpolated linearly where p99 crosses
    `slo_ms`; below the first rung the ladder is extended to (0 req/s,
    0 ms). A failing rung whose p99 is not finite gives no crossing to
    interpolate, so the last passing rate stands. When every rung passes
    the top rate is returned, noted as a floor.
    """
    prev_rate, prev_p99 = 0.0, 0.0
    for rung in rungs:
        p99 = percentile(rung["latency_ms"], 0.99)
        if meets_slo(rung, slo_ms, max_failed):
            prev_rate, prev_p99 = rung["rate"], p99
            continue
        if p99 is None or math.isinf(p99) or p99 <= slo_ms:
            return prev_rate, "no finite p99 crossing; last passing rung"
        frac = (slo_ms - prev_p99) / (p99 - prev_p99)
        return prev_rate + frac * (rung["rate"] - prev_rate), "interpolated"
    return prev_rate, "every rung met the SLO; top rung is a floor"


def pool_rungs(phases):
    """Merges the ladder rungs of all sweeps by offered rate, ascending:
    latencies are concatenated and counts (sent, succeeded, backlog) summed,
    so the SLO rule sees every sample taken at that rate."""
    pooled = {}
    for p in phases:
        r = pooled.setdefault(p["rate"], {"rate": p["rate"], "sent": 0,
                                          "succeeded": 0, "backlog": 0,
                                          "latency_ms": []})
        for key in ("sent", "succeeded", "backlog"):
            r[key] += p[key]
        r["latency_ms"].extend(p["latency_ms"])
    return [pooled[rate] for rate in sorted(pooled)]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf
