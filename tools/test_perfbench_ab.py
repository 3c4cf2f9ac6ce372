#!/usr/bin/env python3
"""ctest perfbench_ab_verdict: tools/perfbench_ab.py's verdict on
canned runs, its sign-test p-values and its exit codes.

    python3 tools/test_perfbench_ab.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfbench_ab  # noqa: E402

ROOT = os.path.dirname(HERE)
TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
WIDE = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]


class Verdict(unittest.TestCase):
    def test_ok_within_bound(self):
        c = [v * 0.9 for v in TIGHT]  # 10% slower, bound 25%
        v = perfbench_ab.verdict(TIGHT, c, 0.25, higher=True)
        self.assertEqual(v["verdict"], "ok")
        self.assertEqual((v["wins"], v["losses"]), (0, 10))

    def test_worse_past_bound(self):
        c = [v * 0.5 for v in TIGHT]
        self.assertEqual(
            perfbench_ab.verdict(TIGHT, c, 0.25, True)["verdict"],
            "worse than its bound")
        # Lower-is-better metrics turn the bound the other way.
        c = [v * 1.5 for v in TIGHT]
        self.assertEqual(
            perfbench_ab.verdict(TIGHT, c, 0.25, False)["verdict"],
            "worse than its bound")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        # q3 - q1 is 4.5 of a median of 10: wider than a 25% bound, so
        # even a much worse change cannot be judged.
        c = [v * 0.5 for v in WIDE]
        self.assertEqual(
            perfbench_ab.verdict(WIDE, c, 0.25, True)["verdict"],
            "unresolved")

    def test_every_change_run_beats_every_parent_run(self):
        c = [v + 20.0 for v in WIDE]  # min(c) = 26 > max(p) = 14
        v = perfbench_ab.verdict(WIDE, c, 0.25, True)
        self.assertEqual(v["verdict"], "ok")
        self.assertEqual(v["wins"], 10)
        # One change run inside the parent's range leaves it unresolved.
        c[0] = 13.0
        self.assertEqual(
            perfbench_ab.verdict(WIDE, c, 0.25, True)["verdict"],
            "unresolved")

    def test_ties_count_for_neither_side(self):
        v = perfbench_ab.verdict(TIGHT, list(TIGHT), 0.25, True)
        self.assertEqual((v["wins"], v["losses"], v["p_value"]),
                         (0, 0, 1.0))


class SignTest(unittest.TestCase):
    def test_exact_two_sided_p_values(self):
        p = perfbench_ab.sign_test_p
        self.assertAlmostEqual(p(10, 0), 2 / 1024)
        self.assertAlmostEqual(p(9, 1), 22 / 1024)
        self.assertAlmostEqual(p(8, 2), 112 / 1024)
        self.assertEqual(p(5, 5), 1.0)
        self.assertEqual(p(1, 9), p(9, 1))
        self.assertEqual(p(0, 0), 1.0)


def result(value, correct=True, failed=0):
    """A perfbench result line with every end-to-end metric at
    @value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    return {"correct": correct, "failed": failed, "attempted": 4,
            "metrics": {n: {"value": value} for n in names}}


class ExitCodes(unittest.TestCase):
    def run_main(self, run_side):
        argv = ["perfbench_ab.py", "--parent", ROOT, "--change", ROOT,
                "--workload", "paper_sweep", "--pairs", "3"]
        with mock.patch.object(perfbench_ab, "run_side", run_side), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(io.StringIO()):
            return perfbench_ab.main()

    def test_equal_runs_exit_0(self):
        self.assertEqual(self.run_main(lambda *a: result(10.0)), 0)

    def test_bad_run_exits_1(self):
        runs = iter([result(10.0)] * 3 + [result(10.0, failed=1)] +
                    [result(10.0)] * 2)
        self.assertEqual(self.run_main(lambda *a: next(runs)), 1)

    def test_missing_result_exits_2(self):
        # A checkout without perfbench/run.py yields no result line.
        with tempfile.TemporaryDirectory() as empty, \
                contextlib.redirect_stderr(io.StringIO()), \
                self.assertRaises(SystemExit) as e:
            perfbench_ab.run_side(empty, "paper_sweep", 1)
        self.assertEqual(e.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
