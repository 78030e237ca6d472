"""Tests of the benchmark's arithmetic. Run: python3 perfbench/test_benchstats.py"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertEqual(benchstats.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))

    def test_relative_spread(self):
        self.assertAlmostEqual(benchstats.relative_spread(list(range(1, 10))), 1.0)
        self.assertEqual(benchstats.relative_spread([5.0] * 10), 0.0)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, beyond = benchstats.tail(values)
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(40, 0, -1)]
        self.assertEqual(benchstats.tail(values), (30.0, 75.0, 10))

    def test_too_few_samples_reports_max(self):
        self.assertEqual(benchstats.tail([3, 9, 1]), (9, 100.0, 0))
        self.assertEqual(benchstats.tail(list(range(10))), (9, 100.0, 0))

    def test_eleven_samples(self):
        value, pct, beyond = benchstats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(beyond, 10)


def histogram_of(values, lowest=1e-4, growth=1.001):
    """The bucketing of perfbench's Histogram, in Python."""
    counts = {}
    for v in values:
        index = int(math.log(max(v, lowest) / lowest) / math.log(growth))
        counts[index] = counts.get(index, 0) + 1
    return {"lowest_ms": lowest, "growth": growth,
            "buckets": [[i, c] for i, c in counts.items()]}


class Histogram(unittest.TestCase):
    def test_values_exact_to_one_bucket(self):
        values = [0.37 * 1.013 ** k for k in range(500)]
        hist = histogram_of(values)
        self.assertEqual(benchstats.histogram_size(hist), 500)
        for rank in (1, 250, 490, 500):
            self.assertAlmostEqual(benchstats.histogram_value(hist, rank) / values[rank - 1],
                                   1.0, delta=1e-3)

    def test_tail_matches_exact_rule(self):
        values = [float(v) for v in range(1, 102)]  # 1..101
        hist = histogram_of(values)
        value, pct, beyond = benchstats.histogram_tail(hist)
        self.assertAlmostEqual(value, benchstats.tail(values)[0], delta=0.1)
        self.assertEqual((pct, beyond), (100.0 * 91 / 101, 10))

    def test_merge_adds_counts(self):
        merged = benchstats.merge_histograms([histogram_of([1.0, 2.0]), histogram_of([2.0, 5.0])])
        self.assertEqual(benchstats.histogram_size(merged), 4)
        self.assertAlmostEqual(benchstats.histogram_value(merged, 3), 2.0, delta=0.002)
        self.assertAlmostEqual(benchstats.histogram_value(merged, 4), 5.0, delta=0.005)

    def test_samples_sharing_a_bucket_are_spread_through_it(self):
        hist = {"lowest_ms": 1.0, "growth": 2.0, "buckets": [[3, 2], [0, 1]]}
        self.assertAlmostEqual(benchstats.histogram_value(hist, 1), 2 ** 0.5)
        self.assertAlmostEqual(benchstats.histogram_value(hist, 2), 2 ** 3.25)
        self.assertAlmostEqual(benchstats.histogram_value(hist, 3), 2 ** 3.75)
        with self.assertRaises(ValueError):
            benchstats.histogram_value(hist, 4)

    def test_tail_rank(self):
        self.assertEqual(benchstats.tail_rank(100), (90, 90.0, 10))
        self.assertEqual(benchstats.tail_rank(10), (10, 100.0, 0))


class FastState(unittest.TestCase):
    def test_decile_rank_is_nearest_rank(self):
        self.assertEqual([benchstats.decile_rank(n) for n in (1, 9, 10, 11, 300)],
                         [1, 1, 1, 2, 30])
        self.assertEqual(benchstats.lower_decile([9, 3, 7, 1, 5, 2, 8, 4, 6, 10, 11]), 2)

    def test_slow_stretch_does_not_move_a_class_cost(self):
        # 30% of a class's ops ran 1.8x slower: its fast-state time is the
        # lower decile of its samples, wherever the slow ops fall.
        fast = [100.0 + k * 0.01 for k in range(70)]
        slow = [180.0 + k * 0.01 for k in range(30)]
        classes = [{"wall_ms": histogram_of(fast + slow), "cpu_ms": histogram_of(fast + slow)},
                   {"wall_ms": histogram_of([5.0] * 20), "cpu_ms": histogram_of([4.0] * 20)}]
        (n0, wall0, cpu0), (n1, wall1, cpu1) = benchstats.fast_state(classes)
        self.assertEqual((n0, n1), (100, 20))
        self.assertAlmostEqual(wall0, 100.09, delta=0.11)
        self.assertAlmostEqual(cpu0, wall0)
        self.assertAlmostEqual(wall1, 5.0, delta=0.005)
        self.assertAlmostEqual(cpu1, 4.0, delta=0.004)

    def test_weighted_median(self):
        self.assertEqual(benchstats.weighted_median([(3, 10.0), (1, 1.0), (1, 50.0)]), 10.0)
        self.assertEqual(benchstats.weighted_median([(2, 1.0), (2, 9.0)]), 1.0)
        self.assertEqual(benchstats.weighted_median([(1, 7.0)]), 7.0)
        with self.assertRaises(ValueError):
            benchstats.weighted_median([])


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [("op", 0, 100, -1, 0), ("fork", 10, 20, 0, 0), ("run", 20, 90, 0, 0)]
        self.assertEqual(benchstats.self_times(spans), [20, 10, 70])

    def test_overlapping_children_count_once(self):
        spans = [("op", 0, 100, -1, 0), ("a", 10, 50, 0, 0), ("b", 30, 60, 0, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 50)

    def test_nested_grandchild_only_reduces_its_parent(self):
        spans = [("op", 0, 100, -1, 0), ("a", 0, 60, 0, 0), ("b", 10, 30, 1, 0)]
        self.assertEqual(benchstats.self_times(spans), [40, 40, 20])

    def test_by_name(self):
        spans = [("op", 0, 10, -1, 0), ("op", 10, 30, -1, 1), ("run", 12, 22, 1, 1)]
        self.assertEqual(benchstats.self_time_by_name(spans), {"op": 20, "run": 10})


class Attribution(unittest.TestCase):
    def test_residual(self):
        layers = {"pa": {"count": 10, "unit_ns": 5}, "fork": {"count": 2, "unit_ns": 20}}
        per_layer, residual, pct = benchstats.attribute(100.0, layers)
        self.assertEqual(per_layer, {"pa": 50, "fork": 40})
        self.assertEqual(residual, 10)
        self.assertAlmostEqual(pct, 10.0)

    def test_over_prediction_gives_negative_residual(self):
        _, residual, pct = benchstats.attribute(50.0, {"x": {"count": 3, "unit_ns": 20}})
        self.assertEqual(residual, -10)
        self.assertAlmostEqual(pct, -20.0)

    def test_share_line(self):
        line = benchstats.share_line("calls", 100.0, {"pa": 50.0, "fork": 40.0}, 10.0)
        self.assertEqual(line, "calls: 50.0% pa, 40.0% fork, 10.0% residual")


class ChromeTrace(unittest.TestCase):
    def test_one_track_per_layer(self):
        spans = [("bench.op", 0, 10, -1, 0), ("kernel.fork", 1, 2, 0, 0),
                 ("kernel.run", 2, 9, 0, 0)]
        events = json.loads(benchstats.chrome_trace(spans, "calls"))["traceEvents"]
        names = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
        self.assertEqual(names, {"bench", "kernel"})
        spans_out = [e for e in events if e["ph"] == "X"]
        self.assertEqual(len(spans_out), 3)
        self.assertEqual(spans_out[1]["tid"], spans_out[2]["tid"])


if __name__ == "__main__":
    unittest.main()
