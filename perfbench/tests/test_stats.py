"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402
import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_middle(self):
        self.assertEqual(stats.median([5.0, 1.0, 3.0]), 3.0)

    def test_even_count_averages_middle_pair(self):
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class HighPercentileTest(unittest.TestCase):
    def test_none_until_ten_samples_lie_beyond_the_median(self):
        self.assertIsNone(stats.high_percentile(list(range(19))))
        self.assertEqual(stats.high_percentile(list(range(20))), (50.0, 9))

    def test_picks_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        p, value = stats.high_percentile(values)
        self.assertEqual(p, 90.0)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_large_sample_reaches_p99(self):
        values = list(range(1000))
        p, value = stats.high_percentile(values)
        self.assertEqual(p, 99.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(40)]
        self.assertEqual(stats.high_percentile(values), stats.high_percentile(values[::-1]))


class SummarizeTest(unittest.TestCase):
    def test_counts_every_sample(self):
        summary = stats.summarize([2.0] * 7 + [9.0])
        self.assertEqual(summary["n"], 8)
        self.assertEqual(summary["median"], 2.0)
        self.assertIsNone(summary["percentile"])

    def test_reports_tail_when_enough_samples(self):
        summary = stats.summarize([float(v) for v in range(1, 41)])
        self.assertEqual(summary["n"], 40)
        self.assertEqual(summary["percentile"], 75.0)
        self.assertEqual(summary["percentile_value"], 30.0)


class DutyTest(unittest.TestCase):
    def test_duty_is_cpu_time_over_workers_times_wall(self):
        # Two workers busy 0.3 s and 0.4 s of CPU in a 0.5 s window.
        self.assertAlmostEqual(stats.duty(0.7, 2, 0.5), 0.7)

    def test_duty_rejects_empty_window(self):
        with self.assertRaises(ValueError):
            stats.duty(0.1, 2, 0.0)

    def test_window_rates_from_raw_counts(self):
        rates = stats.window_rates(iterations=[1000.0, 3000.0], worker_cpu_s=[0.25, 0.5],
                                   wall_s=[0.25, 0.25], workers=2, flops_per_iter=1e6, load=0.5,
                                   host_speed=[1.0, 2.0])
        self.assertEqual(rates["iters_per_core_s"], [4000.0, 6000.0])
        self.assertEqual(rates["gflops_per_core"], [4.0, 6.0])
        self.assertEqual(rates["busy_frac"], [0.5, 1.0])
        self.assertEqual(rates["duty_error"], [0.0, 0.5])

    def test_work_rate_divides_by_the_windows_host_speed(self):
        # The second window ran on a host twice as fast: the same code did
        # twice the FLOPs per CPU-second, and reads the same per
        # reference-second.
        rates = stats.window_rates([1000.0, 2000.0], [0.25, 0.25], [0.25, 0.25], 1, 1e6, 1.0,
                                   [1.0, 2.0])
        self.assertEqual(rates["gflops_per_core"], [4.0, 8.0])
        self.assertEqual(rates["work_rate"], [4.0, 4.0])

    def test_rate_is_per_cpu_second_so_duty_does_not_change_it(self):
        full = stats.window_rates([2000.0], [0.5], [0.25], 2, 1e6, 1.0, [1.0])
        half = stats.window_rates([1000.0], [0.25], [0.25], 2, 1e6, 0.5, [1.0])
        self.assertEqual(full["gflops_per_core"], half["gflops_per_core"])
        self.assertEqual(full["work_rate"], half["work_rate"])
        self.assertEqual(full["duty_error"], half["duty_error"])

    def test_windows_without_cpu_time_are_skipped(self):
        rates = stats.window_rates([0.0], [0.0], [0.25], 2, 1e6, 0.5, [1.0])
        self.assertEqual(rates["busy_frac"], [])
        self.assertEqual(rates["work_rate"], [])


class OverheadTest(unittest.TestCase):
    def test_overhead_compares_medians(self):
        self.assertAlmostEqual(stats.overhead_pct([100.0, 100.0, 90.0], [95.0]), 5.0)

    def test_faster_traced_run_reads_negative(self):
        self.assertLess(stats.overhead_pct([100.0], [101.0]), 0.0)

    def test_time_overhead_compares_medians(self):
        self.assertAlmostEqual(stats.time_overhead_pct([0.5, 0.4, 0.4], [0.42]), 5.0)
        self.assertLess(stats.time_overhead_pct([0.4], [0.39]), 0.0)


class DeriveTest(unittest.TestCase):
    def test_stress_windows_become_end_to_end_and_layer_series(self):
        series = {
            "window.iterations": {"unit": "count", "samples": [1000.0]},
            "window.worker_cpu_s": {"unit": "s", "samples": [0.3]},
            "window.wall_s": {"unit": "s", "samples": [0.25]},
            "window.host_speed": {"unit": "ratio", "samples": [0.8]},
            "traced.window.iterations": {"unit": "count", "samples": [900.0]},
            "traced.window.worker_cpu_s": {"unit": "s", "samples": [0.3]},
            "traced.window.wall_s": {"unit": "s", "samples": [0.25]},
            "traced.window.host_speed": {"unit": "ratio", "samples": [0.8]},
            "setup_s": {"unit": "s", "samples": [0.40, 0.44]},
            "traced.setup_s": {"unit": "s", "samples": [0.42, 0.42]},
        }
        facts = {"workers": "2", "flops_per_iter": "3000000", "load": "0.5"}
        run.derive(series, facts, trace=1)
        self.assertAlmostEqual(series["kernel_gflops_per_core"]["samples"][0], 10.0)
        self.assertAlmostEqual(series["work_rate"]["samples"][0], 12.5)
        self.assertEqual(series["work_rate"]["unit"], "op/ref_s")
        self.assertAlmostEqual(series["duty_error"]["samples"][0], 0.1)
        self.assertAlmostEqual(series["kernel.busy_frac"]["samples"][0], 0.6)
        # Stress spans wrap only set-up, so overhead is read off setup_s.
        self.assertAlmostEqual(series["trace.overhead_pct"]["samples"][0], 0.0)

    def test_other_workloads_read_overhead_off_work_rate(self):
        series = {
            "work_rate": {"unit": "op/ref_s", "samples": [100.0, 100.0]},
            "traced.work_rate": {"unit": "op/ref_s", "samples": [90.0]},
        }
        run.derive(series, {}, trace=1)
        self.assertAlmostEqual(series["trace.overhead_pct"]["samples"][0], 10.0)

    def test_untraced_run_reports_no_overhead(self):
        series = {
            "work_rate": {"unit": "op/ref_s", "samples": [100.0]},
            "traced.work_rate": {"unit": "op/ref_s", "samples": [90.0]},
        }
        run.derive(series, {}, trace=0)
        self.assertNotIn("trace.overhead_pct", series)


if __name__ == "__main__":
    unittest.main()
