"""Self-tests of the benchmark (they run the workloads, so they take a few
minutes; the repository's own test suite does not collect them).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, fresh_import, measure  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import BUILDERS, dense_structures  # noqa: E402

SEED = 7


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".checks")) or name in (
                "report.checks", "report.violations", "search.candidates", "search.found")}


class TracedRunTest(unittest.TestCase):
    def test_traced_checks_equal_cli_checked_lines(self):
        # Every run_checks call of a mutants pass belongs to a `verify` whose
        # stderr reports it, so the traced total must equal the CLI's total.
        result, _, passes = measure("mutants", SEED, 0, trace=True)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["report.checks"]["value"],
                         sum(passes[-1].checked))

    def test_counts_repeat_across_traced_runs(self):
        for workload in sorted(BUILDERS):
            with self.subTest(workload=workload):
                first, _, _ = measure(workload, SEED, 0, trace=True)
                second, _, _ = measure(workload, SEED, 0, trace=True)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(list(first["metrics"]), list(PER_LAYER))
                self.assertEqual(_counts(first), _counts(second))


class DenseInputTest(unittest.TestCase):
    def test_dense_inputs_verify_for_several_seeds(self):
        rb = fresh_import(ROOT)
        for seed in (1, 2, 3):
            for name, obj in dense_structures(rb, seed).items():
                with self.subTest(seed=seed, structure=name):
                    report = rb.cli.verify_structure(obj)
                    self.assertTrue(report.ok, report.lines()[:3])


if __name__ == "__main__":
    unittest.main()
