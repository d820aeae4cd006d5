#!/usr/bin/env python3
"""Self-tests of the benchmark driver.

Run from the repository root (builds the driver on first use):

    python3 perfbench/tests/test_perfbench.py
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("paper_tables", "campaigns_journaled", "grid_scale")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def result_line(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


class PlanIsPureFunctionOfSeed(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run("--workload", workload, "--seed", "7", "--plan")
                again = run("--workload", workload, "--seed", "7", "--plan")
                other = run("--workload", workload, "--seed", "8", "--plan")
                for completed in (first, again, other):
                    self.assertEqual(completed.returncode, 0,
                                     completed.stderr)
                self.assertTrue(first.stdout.strip())
                self.assertEqual(first.stdout, again.stdout)
                self.assertNotEqual(first.stdout, other.stdout)


class EmittedMetrics(unittest.TestCase):
    def test_names_units_and_declared_lists(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            expected = [m["name"] for m in declared[key]]
            units = {m["name"]: m["unit"] for m in declared[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    completed = run("--workload", workload, "--seed", "3",
                                    "--seconds", "0.5", "--trace", trace)
                    self.assertEqual(completed.returncode, 0,
                                     completed.stderr)
                    result = result_line(completed)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsNotNone(NAME.fullmatch(name), name)
                        self.assertEqual(metric["unit"], units[name])
                        self.assertIsInstance(metric["value"], (int, float))


class WrongDigestIsFailedOperation(unittest.TestCase):
    def test_reported_not_crashed(self):
        completed = run("--workload", "grid_scale", "--seed", "3",
                        "--seconds", "0.5", "--trace", "0", "--wrong-digest")
        self.assertEqual(completed.returncode, 0, completed.stderr)
        result = result_line(completed)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("check FAIL  digest equals run_scale_scenario_reference",
                      completed.stdout)


if __name__ == "__main__":
    unittest.main()
