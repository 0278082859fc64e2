"""Tests for the benchmark's own helpers and checks.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_rank(100), 90)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertAlmostEqual(run.tail_percentile(126), 100.0 * 116 / 126)
        self.assertIsNone(run.tail_rank(10))
        self.assertIsNone(run.tail_percentile(5))

    def test_tail_rank_leaves_exactly_ten_samples_beyond(self):
        for n in (11, 57, 100, 999):
            values = list(range(n))
            rank = run.tail_rank(n)
            beyond = [v for v in values if v > sorted(values)[rank - 1]]
            self.assertEqual(len(beyond), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))  # 100 .. 1, unsorted
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_p90_needs_a_hundred_trials(self):
        with self.assertRaises(run.CheckFailed):
            run.end_to_end(fake_raw(trials=99))
        metrics = run.end_to_end(fake_raw(trials=100))
        self.assertEqual(metrics["trial_p90_ms"], (90.0, "ms"))


class SpanSelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            # trial 7: root 0..100 with a(10..60 > b, c) and d
            [7, "trial", 0, 100, -1],
            [7, "a", 10, 60, 0],
            [7, "b", 20, 30, 1],
            [7, "c", 40, 50, 1],
            [7, "d", 70, 90, 0],
            # trial 8: indices restart within the trial
            [8, "trial", 200, 260, -1],
            [8, "a", 200, 250, 0],
        ]
        got = {(t, n): ns for t, n, ns in run.self_times(spans)}
        self.assertEqual(got, {(7, "trial"): 30, (7, "a"): 30, (7, "b"): 10,
                               (7, "c"): 10, (7, "d"): 20, (8, "trial"): 10,
                               (8, "a"): 50})

    def test_self_times_sum_to_root_duration(self):
        spans = [[1, "trial", 0, 1000, -1], [1, "x", 100, 900, 0],
                 [1, "y", 200, 300, 1], [1, "z", 300, 800, 1],
                 [1, "w", 350, 360, 3]]
        self.assertEqual(sum(s[2] for s in run.self_times(spans)), 1000)


class SetupEstimator(unittest.TestCase):
    def test_count_times_median(self):
        got = run.setup_estimate([1e-5, 2e-5, 3e-5], [0.3, 0.4, 0.35, 0.5],
                                 dies=2)
        self.assertAlmostEqual(got, 2e-5 + 2 * 0.375)

    def test_one_hiccup_does_not_move_it(self):
        steady = run.setup_estimate([0.0], [0.4, 0.4, 0.4, 0.4, 0.4], 2)
        hiccup = run.setup_estimate([0.0], [0.4, 0.4, 3.0, 0.4, 0.4], 2)
        self.assertEqual(steady, hiccup)

    def test_no_dies_is_only_the_resets(self):
        self.assertEqual(run.setup_estimate([5e-6, 4e-6, 6e-6], [], 0),
                         5e-6)


def fake_raw(trials=120, family="voltboot", accuracy=1.0, exact=1, cpa=0):
    rows = [[i, family, "ok", float(i + 1), accuracy, 1, exact, cpa]
            for i in range(trials)]
    return {
        "workload": "fresh_chip",
        "seed": 1,
        "jobs": 1,
        "nproc": 4,
        "build_type": "Release",
        "optimized": True,
        "warm_dies": 0,
        "reset_s": [1e-5],
        "bringup_s": [],
        "peak_rss_kb": 1024,
        "fp_cache_bytes": 0,
        "rounds_consistent": True,
        "counters": {"kernel_invocations_avx512": 0,
                     "kernel_invocations_scalar": 0,
                     "kernel_invocations_reference": 0},
        "rounds": [{"trials": trials, "run_s": 1.0, "render_s": 0.0,
                    "trial_s": 1.0, "minflt": 0, "majflt": 0}],
        "trials": rows,
    }


class OutputChecks(unittest.TestCase):
    """A digest or anchor mismatch makes the run exit non-zero without
    printing a result."""

    def run_main(self, raw, digest_ok=True, seed=1):
        with tempfile.TemporaryDirectory() as workdir:
            with open(os.path.join(workdir, "result.json"), "w") as f:
                json.dump(raw, f)
            for name in ("round0.json", "round0.csv"):
                with open(os.path.join(workdir, name), "w") as f:
                    f.write(name)
            recorded = run.digest(workdir) if digest_ok else "0" * 64
            out = io.StringIO()
            with mock.patch.object(run, "build"), \
                    mock.patch.object(run, "run_workload",
                                      return_value=workdir), \
                    mock.patch.dict(run.DIGESTS,
                                    {"fresh_chip": recorded}), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "fresh_chip",
                                 "--seed", str(seed), "--seconds", "1"])
        return code, out.getvalue()

    def assert_refused(self, code, stdout):
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', stdout)

    def test_clean_run_prints_result(self):
        code, stdout = self.run_main(fake_raw())
        self.assertEqual(code, 0)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 120)

    def test_digest_mismatch_fails(self):
        self.assert_refused(*self.run_main(fake_raw(), digest_ok=False))

    def test_digest_skipped_at_other_seeds(self):
        code, _ = self.run_main(fake_raw(), digest_ok=False, seed=2)
        self.assertEqual(code, 0)

    def test_voltboot_anchor(self):
        self.assert_refused(*self.run_main(fake_raw(accuracy=0.999)))
        self.assert_refused(*self.run_main(fake_raw(exact=0)))

    def test_coldboot_anchor(self):
        self.assert_refused(*self.run_main(
            fake_raw(family="coldboot", accuracy=0.9, exact=1)))
        code, _ = self.run_main(
            fake_raw(family="coldboot", accuracy=0.9, exact=0))
        self.assertEqual(code, 0)

    def test_cpa_anchor(self):
        self.assert_refused(*self.run_main(
            fake_raw(family="voltage-coupling", cpa=15)))

    def test_failed_trial(self):
        raw = fake_raw()
        raw["trials"][3][2] = "error"
        self.assert_refused(*self.run_main(raw))

    def test_unoptimised_build(self):
        raw = fake_raw()
        raw["optimized"] = False
        self.assert_refused(*self.run_main(raw))

    def test_guarded_environment(self):
        with mock.patch.dict(os.environ,
                             {"VOLTBOOT_RETENTION_KERNEL": "fast"}):
            self.assert_refused(*self.run_main(fake_raw()))


if __name__ == "__main__":
    unittest.main()
