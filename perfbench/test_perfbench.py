#!/usr/bin/env python3
"""Tests of the end-to-end benchmark at a tiny scale.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names, by
name and unit, in both the untraced and the traced run; that a corrupted
reference answer is reported as failed ops with a non-zero exit (the
checks fail closed); and that the benchmark refuses to run without the
library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
TINY = ["--seconds", "1", "--rows", "20000"]
WORKLOADS = ["ingest", "oneshot", "served"]


def run_bench(workload, trace, *extra, cwd="."):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--trace", str(trace)]
        + TINY + list(extra), cwd=cwd, capture_output=True, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)
        for workload in WORKLOADS:
            for trace, declared in ((0, self.spec["end_to_end"]),
                                    (1, self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, proc = run_bench(workload, trace)
                    self.assertEqual(code, 0, proc.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assert_metrics(result, declared)
                    for metric in self.spec["end_to_end"] if not trace else []:
                        self.assertGreater(
                            result["metrics"][metric["name"]]["value"], 0)

    def test_corrupted_reference_answer_fails_closed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run_bench(workload, 0,
                                            "--corrupt-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(".bench_work", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run_bench("oneshot", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                os.rmdir(".bench_work")
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
