#!/usr/bin/env python3
"""Tests for bench_compare.py's keyed baseline gate (--key/--metric), run
the way CI runs it: BASELINE RUN [RUN ...] --key ... --metric ..."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"


class KeyedGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, rows, name):
        """A bench envelope with one record per (cell, rate); rate None
        leaves the metric field out."""
        records = [{"cell": c, "threads": 1,
                    **({} if r is None else {"rate": r})} for c, r in rows]
        path = Path(self.tmp.name) / f"{name}.json"
        path.write_text(json.dumps({"bench": "fixture", "schema_version": 1,
                                    "results": records}))
        return str(path)

    def gate(self, *paths, threshold="0.10"):
        return subprocess.run(
            [sys.executable, str(SCRIPT), *paths, "--key", "cell,threads",
             "--metric", "rate", "--threshold", threshold],
            capture_output=True, text=True)

    def test_identical_files_pass(self):
        base = self.write([("a", 100.0), ("b", 50.0)], "base")
        proc = self.gate(base, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.count("ok  "), 2)

    def test_best_of_several_runs(self):
        base = self.write([("a", 100.0)], "base")
        slow = self.write([("a", 50.0)], "slow")
        fast = self.write([("a", 95.0)], "fast")
        self.assertEqual(self.gate(base, slow).returncode, 1)
        self.assertEqual(self.gate(base, slow, fast, slow).returncode, 0)

    def test_drop_beyond_threshold_fails(self):
        base = self.write([("a", 100.0), ("b", 50.0)], "base")
        run = self.write([("a", 100.0), ("b", 40.0)], "run")
        proc = self.gate(base, run)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL  cell=b threads=1", proc.stdout)
        self.assertEqual(self.gate(base, run, threshold="0.25").returncode, 0)
        self.assertEqual(self.gate(base, base, threshold="-0.01").returncode,
                         1)

    def test_change_is_printed_relative_to_the_baseline(self):
        base = self.write([("a", 300.0), ("b", 100.0)], "base")
        run = self.write([("a", 500.0), ("b", 95.0)], "run")
        proc = self.gate(base, run)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("300.0 ->        500.0 rate (+66.7%)", proc.stdout)
        self.assertIn("100.0 ->         95.0 rate (-5.0%)", proc.stdout)

    def test_row_set_mismatch_fails(self):
        base = self.write([("a", 100.0), ("b", 50.0)], "base")
        run = self.write([("a", 100.0), ("c", 50.0)], "run")
        proc = self.gate(base, run)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("row sets differ", proc.stderr)

    def test_missing_field_and_non_positive_baseline_exit_2(self):
        base = self.write([("a", 100.0)], "base")
        missing = self.write([("a", None)], "missing")
        self.assertEqual(self.gate(base, missing).returncode, 2)
        zero = self.write([("a", 0.0)], "zero")
        self.assertEqual(self.gate(zero, base).returncode, 2)


if __name__ == "__main__":
    unittest.main()
