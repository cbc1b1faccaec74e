#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout (about two minutes on one core):

    python3 perfbench/test_perfbench.py

Checks, on every workload, that a short run emits every metric named in
BENCHMARK.json with its unit and passes its output checks; that two runs
with the same seed agree exactly on the exact metrics, the per-layer counts
and the generated inputs; that another seed changes the generated inputs;
and that the benchmark fails cleanly in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Quality metrics are computed from a fixed set of trials, never from
# timings, so they repeat exactly for a seed.
EXACT_END_TO_END = ("fidelity", "throughput", "latency_slots",
                    "admitted_per_slot", "blocking_probability",
                    "delivery_p99_slots")
EXACT_LAYER_SUFFIXES = (".yield", ".lp_yield", ".delivered_ratio",
                        ".decodes_per_code", ".iterations_per_solve")


def run(workload, seed, trace, cwd=ROOT):
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def digest_of(stdout):
    match = re.search(r"inputs digest ([0-9a-f]{16})", stdout)
    return match.group(1) if match else None


def exact_layer(name, unit):
    return unit == "count" or name.endswith(EXACT_LAYER_SUFFIXES)


class BenchmarkSelfTest(unittest.TestCase):
    def check_run(self, done, declared):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result, stdout = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in declared:
            self.assertIn(metric["name"], result["metrics"])
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"], metric["name"])
        return result["metrics"], stdout

    def test_end_to_end_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, out_a = self.check_run(run(workload, 7, 0),
                                          SPEC["end_to_end"])
                b, out_b = self.check_run(run(workload, 7, 0),
                                          SPEC["end_to_end"])
                _, out_c = self.check_run(run(workload, 8, 0),
                                          SPEC["end_to_end"])
                for name in EXACT_END_TO_END:
                    self.assertEqual(a[name], b[name], name)
                self.assertIsNotNone(digest_of(out_a))
                self.assertEqual(digest_of(out_a), digest_of(out_b))
                self.assertNotEqual(digest_of(out_a), digest_of(out_c))
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(a[metric["name"]]["value"], 0,
                                       metric["name"])

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = self.check_run(run(workload, 7, 1), SPEC["per_layer"])
                b, _ = self.check_run(run(workload, 7, 1), SPEC["per_layer"])
                for metric in SPEC["per_layer"]:
                    if exact_layer(metric["name"], metric["unit"]):
                        self.assertEqual(a[metric["name"]], b[metric["name"]],
                                         metric["name"])
                self.assertLessEqual(a["unaccounted_share"]["value"], 0.05)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
