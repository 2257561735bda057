#!/usr/bin/env python3
"""Self-tests for the benchmark, at tiny scale (about a minute in all).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the result digest repeats across repetitions and between the traced and the
untraced run, that a forced invariant failure is counted as a failed
operation, and that Mudi replayed over its own trace does not diverge.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["serve-80gpu", "chaos-12gpu", "whatif-sweep"]


def bench(workload, trace, *extra):
    """Runs perfbench/run.py at tiny scale; returns (exit code, last line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def binary(workload, *extra):
    """Runs the untraced driver directly; returns its full JSON result."""
    result = run.run_binary(
        "mudi_perfbench",
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny",
         "--work-dir", run.BUILD_ROOT] + list(extra), timeout=600)
    return result


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.end_to_end, cls.per_layer = run.load_contract()

    def check_line(self, line, wanted):
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})
        for spec in wanted:
            got = line["metrics"][spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(got["value"], (int, float), spec["name"])

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, line, err = bench(workload, 0)
                self.assertEqual(code, 0, err)
                self.check_line(line, self.end_to_end)
                self.assertTrue(line["correct"])
            with self.subTest(workload=workload, trace=1):
                # run.py also compares the traced digest with the untraced one
                # and reports a mismatch as incorrect.
                code, line, err = bench(workload, 1)
                self.assertEqual(code, 0, err)
                self.check_line(line, self.per_layer)
                self.assertTrue(line["correct"], err)
                self.assertIn("identical", err)

    def test_digest_repeats_across_repetitions(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = binary(workload)
                second = binary(workload)
                self.assertGreaterEqual(first["attempted"], 2)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(first["digest"], second["digest"])

    def test_forced_invariant_failure_is_a_failed_operation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = binary(workload, "--force-invariant-failure")
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                code, line, _ = bench(workload, 0, "--force-invariant-failure")
                self.assertEqual(code, 1)  # no passing repetition, so no metrics

    def test_mudi_over_its_own_trace_does_not_diverge(self):
        # RunSweepRep fails the repetition when Mudi diverges from its own
        # recorded decisions, so a clean sweep proves zero divergences.
        result = binary("whatif-sweep")
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["run_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
