#!/usr/bin/env python3
"""Unit tests of the bench gate, tools/bench_compare.py.

    python3 tools/test_bench_compare.py

Every fixture is written to a temporary directory by the test itself.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def gate(metric, tolerance=0.35, better="higher"):
    return {metric: {"better": better, "tolerance": tolerance}}


def row(bench, section, gated=None, **fields):
    record = {"bench": bench, "section": section, **fields}
    if gated is not None:
        record["gate"] = gated
    return record


def e2e_result(correct=True, traced=False):
    """A bench_e2e --json result; a traced one has per-layer metrics."""
    metrics = ({"server.p50_ms": 0.9, "loadgen.sent": 900} if traced
               else {"setup_s": 0.2, "throughput": 4300.0, "p50_ms": 1.06,
                     "accuracy": 0.8})
    return {"workload": "serve_mixed", "seed": 1, "seconds": 10,
            "traced": traced, "correct": correct, "attempted": 1000,
            "failed": 0, "metrics": metrics}


E2E_ROW = row("bench_e2e", "serve_mixed",
              {**gate("throughput"), **gate("p50_ms", better="lower")},
              throughput=4300.0, p50_ms=1.06)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, data):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    def gate(self, baseline, *fresh):
        """Runs the gate; returns (exit code, report)."""
        paths = [self.write("baseline.json", baseline)]
        paths += [self.write(f"fresh{i}.json", data)
                  for i, data in enumerate(fresh)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_compare.main(paths)
        return code, out.getvalue()

    def test_higher_is_better_passes_at_floor_fails_past_it(self):
        base = row("b", "s", gate("images_per_s"), images_per_s=2000.0)
        floor = 2000.0 * (1.0 - 0.35)
        code, _ = self.gate([base], [row("b", "s", images_per_s=floor)])
        self.assertEqual(code, 0)
        code, report = self.gate(
            [base], [row("b", "s", images_per_s=floor * 0.99)])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", report)

    def test_lower_is_better_passes_at_ceiling_fails_past_it(self):
        base = row("b", "s", gate("p50_ms", better="lower"), p50_ms=2.0)
        ceiling = 2.0 * (1.0 + 0.35)
        code, _ = self.gate([base], [row("b", "s", p50_ms=ceiling)])
        self.assertEqual(code, 0)
        code, report = self.gate(
            [base], [row("b", "s", p50_ms=ceiling * 1.01)])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", report)

    def test_tolerance_is_per_row(self):
        baseline = [row("b", "tight", gate("v", 0.01), v=100.0),
                    row("b", "loose", gate("v", 0.35), v=100.0)]
        code, report = self.gate(
            baseline, [row("b", "tight", v=99.0), row("b", "loose", v=66.0)])
        self.assertEqual(code, 0, report)
        code, report = self.gate(
            baseline, [row("b", "tight", v=98.0), row("b", "loose", v=66.0)])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION bench=b section=tight", report)
        self.assertIn("ok         bench=b section=loose", report)

    def test_ungated_row_never_fails(self):
        baseline = [row("b", "gated", gate("v"), v=10.0),
                    row("b", "trajectory", v=10.0)]
        code, report = self.gate(
            baseline, [row("b", "gated", v=10.0),
                       row("b", "trajectory", v=0.001)])
        self.assertEqual(code, 0, report)
        self.assertNotIn("trajectory", report)

    def test_unmatched_row_is_reported_and_passes_beside_a_compared_one(self):
        baseline = [row("b", "s", gate("v"), kernel="avx2", v=10.0),
                    row("b", "s", gate("v"), kernel="scalar", v=5.0)]
        code, report = self.gate(baseline,
                                 [row("b", "s", kernel="avx2", v=10.0)])
        self.assertEqual(code, 0, report)
        self.assertIn("unmatched  bench=b section=s kernel=scalar v", report)

    def test_bench_with_no_compared_row_fails(self):
        baseline = [row("a", "s", gate("v"), v=10.0),
                    row("b", "s", gate("v"), v=10.0)]
        code, report = self.gate(baseline, [row("a", "s", v=10.0)])
        self.assertEqual(code, 1)
        self.assertIn("bench b: no gated row was compared", report)

    def test_bench_e2e_result_is_read_and_incorrect_run_fails(self):
        code, report = self.gate([E2E_ROW], e2e_result())
        self.assertEqual(code, 0, report)
        self.assertIn("ok         bench=bench_e2e section=serve_mixed: "
                      "baseline 4300 -> fresh 4300 throughput", report)
        self.assertIn("fresh 1.06 p50_ms", report)
        code, report = self.gate([E2E_ROW], e2e_result(correct=False))
        self.assertEqual(code, 1)
        self.assertIn("was not correct", report)

    def test_traced_bench_e2e_result_does_not_satisfy_the_row(self):
        code, report = self.gate([E2E_ROW], e2e_result(traced=True))
        self.assertEqual(code, 1)
        self.assertIn("unmatched  bench=bench_e2e section=serve_mixed "
                      "throughput", report)
        self.assertIn("bench bench_e2e: no gated row was compared", report)

    def test_report_keeps_significant_digits(self):
        base = row("f", "chaos", gate("success_rate", 0.01), success_rate=1)
        code, report = self.gate([base],
                                 [row("f", "chaos", success_rate=0.985)])
        self.assertEqual(code, 1)
        self.assertIn("baseline 1 -> fresh 0.985 success_rate "
                      "(floor 0.99, tolerance 0.01)", report)


if __name__ == "__main__":
    unittest.main()
