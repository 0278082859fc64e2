"""Tests for the bench-history regression gate.

    python3 -m unittest discover -s tools/tests
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
import bench_history  # noqa: E402


class Gate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.history = os.path.join(self.dir, "history.jsonl")

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, cells_per_second, method=None):
        """Write one BENCH_retention.json and run the gate on it."""
        doc = {"bench": "retention_microbench",
               "scenarios": [{"cells_per_second": cells_per_second}]}
        if method is not None:
            doc["method"] = method
        with open(os.path.join(self.dir, "BENCH_retention.json"), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f)
        out = io.StringIO()
        argv = ["bench_history.py", self.dir, "--history", self.history]
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(out):
            code = bench_history.main()
        return code, out.getvalue()

    def test_untagged_artefact_keeps_the_plain_key(self):
        code, out = self.run_gate(100.0)
        self.assertEqual(code, 0)
        self.assertIn("new    BENCH_retention/scenarios[0]/"
                      "cells_per_second", out)

    def test_regression_under_the_same_method_fails(self):
        for _ in range(3):
            self.assertEqual(self.run_gate(100.0, "readback")[0], 0)
        code, out = self.run_gate(50.0, "readback")
        self.assertEqual(code, 1)
        self.assertIn("REGR   BENCH_retention@readback/scenarios[0]/"
                      "cells_per_second", out)

    def test_regression_without_a_method_still_fails(self):
        for _ in range(3):
            self.assertEqual(self.run_gate(100.0)[0], 0)
        self.assertEqual(self.run_gate(50.0)[0], 1)

    def test_a_new_method_starts_a_new_series(self):
        for _ in range(3):
            self.assertEqual(self.run_gate(100.0)[0], 0)
        code, out = self.run_gate(50.0, "readback")
        self.assertEqual(code, 0)
        self.assertIn("new    BENCH_retention@readback/", out)
        self.assertIn("gone   BENCH_retention/scenarios[0]/", out)
        # The new series gates from here on.
        self.assertEqual(self.run_gate(50.0, "readback")[0], 0)
        self.assertEqual(self.run_gate(20.0, "readback")[0], 1)


if __name__ == "__main__":
    unittest.main()
