"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def rung(rate, latencies, succeeded=None, backlog=0):
    return {"rate": rate, "sent": len(latencies), "latency_ms": latencies,
            "succeeded": len(latencies) if succeeded is None else succeeded,
            "backlog": backlog}


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))
        # 1000 samples: rank 990, so exactly ten lie beyond it.
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.5))
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_failed_requests_rank_above_every_latency(self):
        samples = [1.0] * 985 + [None] * 15
        self.assertTrue(math.isinf(stats.percentile(samples, 0.99)))
        self.assertEqual(stats.percentile(samples, 0.5), 1.0)

    def test_empty(self):
        self.assertIsNone(stats.percentile([], 0.5))


class MaxQpsAtSloTest(unittest.TestCase):
    SLO = 10.0

    def capacity(self, rungs):
        return stats.max_qps_at_slo(rungs, self.SLO, 0.001)

    def test_interpolates_between_passing_and_failing_rung(self):
        rungs = [rung(100, [2.0] * 1000), rung(200, [6.0] * 1000),
                 rung(300, [14.0] * 1000)]
        rate, note = self.capacity(rungs)
        self.assertAlmostEqual(rate, 250.0)
        self.assertEqual(note, "interpolated")

    def test_low_end_interpolates_from_the_origin(self):
        rate, _ = self.capacity([rung(100, [20.0] * 1000),
                                 rung(200, [40.0] * 1000)])
        self.assertAlmostEqual(rate, 50.0)

    def test_high_end_returns_top_rung_as_floor(self):
        rate, note = self.capacity([rung(100, [1.0] * 1000),
                                    rung(200, [2.0] * 1000)])
        self.assertEqual(rate, 200)
        self.assertIn("floor", note)

    def test_continuous_in_the_failing_rungs_p99(self):
        lo = [rung(100, [5.0] * 1000)]
        a, _ = self.capacity(lo + [rung(200, [10.001] * 1000)])
        b, _ = self.capacity(lo + [rung(200, [10.002] * 1000)])
        self.assertAlmostEqual(a, b, places=1)

    def test_rungs_after_the_first_failure_do_not_count(self):
        rungs = [rung(100, [5.0] * 1000), rung(200, [15.0] * 1000),
                 rung(300, [1.0] * 1000)]
        rate, _ = self.capacity(rungs)
        self.assertAlmostEqual(rate, 150.0)

    def test_failures_or_growing_queue_fail_a_rung(self):
        ok = [2.0] * 1000
        self.assertTrue(stats.meets_slo(rung(1, ok), self.SLO, 0.001))
        self.assertFalse(stats.meets_slo(rung(1, ok, succeeded=998),
                                         self.SLO, 0.001))
        self.assertFalse(stats.meets_slo(rung(1, ok, backlog=51),
                                         self.SLO, 0.001))
        self.assertFalse(stats.meets_slo(rung(1, [2.0] * 999), self.SLO,
                                         0.001))  # p99 withheld

    def test_failing_rung_without_finite_p99_keeps_last_passing_rate(self):
        rungs = [rung(100, [5.0] * 1000),
                 rung(200, [5.0] * 900 + [None] * 100, succeeded=900)]
        rate, note = self.capacity(rungs)
        self.assertEqual(rate, 100)
        self.assertIn("no finite", note)

    def test_pool_rungs_merges_sweeps_by_rate(self):
        pooled = stats.pool_rungs([rung(200, [1.0] * 3, backlog=1),
                                   rung(100, [2.0] * 2),
                                   rung(200, [3.0] * 4, backlog=2)])
        self.assertEqual([r["rate"] for r in pooled], [100, 200])
        self.assertEqual(pooled[1]["sent"], 7)
        self.assertEqual(pooled[1]["backlog"], 3)
        self.assertEqual(sorted(pooled[1]["latency_ms"]), [1.0] * 3 + [3.0] * 4)


class RepeatStatisticsTest(unittest.TestCase):
    VALUES = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]

    def test_median(self):
        self.assertEqual(stats.median(self.VALUES), 5.5)
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)

    def test_quartiles_match_statistics_quantiles(self):
        q1, med, q3 = stats.quartiles(self.VALUES)
        self.assertEqual((q1, med, q3),
                         tuple(statistics.quantiles(self.VALUES, n=4)))
        # Exclusive method on 1..10: positions 2.75, 5.5 and 8.25.
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(self.VALUES), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0, 2.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
