"""Unit tests of benchmark/run.py's rules on synthetic inputs.

  python3 -m unittest discover -s benchmark
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def span(sid, parent, name, start, end, **counters):
    return sid, run.Span(parent, name, start, end, counters)


class SupportedPercentile(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        self.assertEqual(run.supported_percentile(100_000), 99.0)
        self.assertEqual(run.supported_percentile(1000), 99.0)
        self.assertEqual(run.supported_percentile(999), 95.0)
        self.assertEqual(run.supported_percentile(286), 95.0)
        self.assertEqual(run.supported_percentile(200), 95.0)
        self.assertEqual(run.supported_percentile(199), 90.0)
        self.assertEqual(run.supported_percentile(100), 90.0)

    def test_too_few_samples(self):
        self.assertIsNone(run.supported_percentile(99))
        self.assertIsNone(run.supported_percentile(0))

    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(run.rank_percentile(vals, 50), 50)
        self.assertEqual(run.rank_percentile(vals, 99), 99)
        self.assertEqual(run.rank_percentile([7.0], 99), 7.0)
        self.assertEqual(run.rank_percentile([], 50), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = dict([
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),    # overlaps a: 10..60 covered once
            span(4, 2, "a.child", 15, 20),
            span(5, 1, "late", 90, 120),  # clipped to the root's end
            span(6, 0, "other_root", 50, 70),  # not a child of root
        ])
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 30 - 5)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 5)
        self.assertEqual(selfs[5], 30)
        self.assertEqual(selfs[6], 20)

    def test_reducer_uses_self_time(self):
        spans = dict([
            span(1, 0, "measure", 0, 10_000_000, active_ns=10_000_000.0,
                 txns=2.0, versions=6.0),
            span(2, 0, "query", 0, 4_000_000, stale=3.0),
            span(3, 2, "mvcc.snapshot", 0, 1_000_000, versions=5.0),
            span(4, 2, "olap.run_query", 1_000_000, 3_000_000, q=6.0,
                 rows=100.0),
        ])
        out = run.reduce_trace(spans)
        self.assertAlmostEqual(out["olap.exec_share"], 0.2)
        self.assertAlmostEqual(out["olap.q06_per_s"], 500.0)
        self.assertAlmostEqual(out["mvcc.snapshot_share"], 0.1)
        self.assertAlmostEqual(out["client.query_busy_share"], 0.4)
        self.assertAlmostEqual(out["htap.stale_txns.p50"], 3.0)
        self.assertAlmostEqual(out["txn.versions_per_txn"], 3.0)
        self.assertAlmostEqual(out["olap.rows_per_s"], 100 / 0.002)

    def test_reducer_emits_every_declared_per_layer_metric(self):
        with open(run.SPEC_PATH) as f:
            spec = json.load(f)
        spans = dict([span(1, 0, "measure", 0, 1, active_ns=1.0)])
        out = run.reduce_trace(spans)
        self.assertEqual(sorted(out), sorted(d["name"]
                                             for d in spec["per_layer"]))


class Verdict(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_unchanged_within_bound(self):
        new = [101.0, 102.0, 100.0, 101.5, 100.5]
        self.assertEqual(run.verdict(self.base, new, 0.05, "lower"),
                         "unchanged")

    def test_regressed_beyond_bound(self):
        new = [v * 1.2 for v in self.base]
        self.assertEqual(run.verdict(self.base, new, 0.10, "lower"),
                         "regressed")
        self.assertEqual(run.verdict(new, self.base, 0.10, "higher"),
                         "regressed")

    def test_improved_needs_pair_wins_and_more_than_base_spread(self):
        new = [v * 0.9 for v in self.base]
        self.assertEqual(run.verdict(self.base, new, 0.10, "lower"),
                         "improved")
        # Better median, but it loses two of five pairs.
        mixed = [95.0, 101.5, 95.0, 101.0, 95.5]
        self.assertEqual(run.verdict(self.base, mixed, 0.10, "lower"),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = [80.0, 100.0, 120.0, 90.0, 110.0]
        new = [85.0, 105.0, 118.0, 95.0, 112.0]
        self.assertEqual(run.verdict(wide, new, 0.05, "lower"),
                         "unresolved")

    def test_wide_spread_still_resolves_when_runs_separate(self):
        wide = [80.0, 100.0, 120.0, 90.0, 110.0]
        faster = [v / 2 for v in wide]
        self.assertEqual(run.verdict(wide, faster, 0.05, "lower"),
                         "improved")
        self.assertEqual(run.verdict(faster, wide, 0.05, "lower"),
                         "regressed")


class EndToEnd(unittest.TestCase):
    def test_scaling_and_tail(self):
        record = {"setup_s": [3.0, 1.0, 2.0], "peak_rss_mb": 10.0,
                  "ops": 50, "measured_s": 2.0, "model_latency_us": 1.5,
                  "host_ref_ms": 2 * run.REF_NOMINAL_MS,
                  "latency_ms": {"n": 300, "p50": 1.0, "p90": 2.0,
                                 "p95": 3.0, "p99": 4.0}}
        m = run.end_to_end(record)
        # A host twice as slow as nominal: times halve, rates double.
        self.assertEqual(m["setup_s"], 1.0)
        self.assertEqual(m["ops_per_s"], 50.0)
        self.assertEqual(m["latency_p50_ms"], 0.5)
        self.assertEqual(m["peak_rss_mb"], 10.0)
        self.assertEqual(run.latency_tail(record["latency_ms"]), (95.0, 3.0))
        record["latency_ms"]["n"] = 50
        with self.assertRaises(run.BenchError):
            run.latency_tail(record["latency_ms"])


if __name__ == "__main__":
    unittest.main()
