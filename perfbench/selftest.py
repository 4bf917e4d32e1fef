"""Self-tests of the benchmark's checks.

    python3 perfbench/selftest.py

The quick mode runs every workload's CLI call and checks on tiny inputs;
then each check is shown to reject a corrupted copy of a real output.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import time
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import WORKLOADS  # noqa: E402


def _cli_output(name):
    work = run.OUT / f"selftest-{name}-{os.getpid()}"
    case = run.Case(name, 0, work, quick=True)
    run.run_process(case.cli(work / "out"), work / "cli.log",
                    time.monotonic() + 120)
    return case, work


class QuickMode(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        run.OUT.mkdir(exist_ok=True)
        self.assertEqual(run.quick(list(WORKLOADS)), 0)


class CorruptedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.case, cls.work = _cli_output("cube-k200")
        cls.out = cls.work / "out"
        cls.rep = checks.load_report(str(cls.out / "report.json"))
        cls.vcase, cls.vwork = _cli_output("verify-lp")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        shutil.rmtree(cls.vwork, ignore_errors=True)

    def check(self, rep):
        return checks.check_report(self.case.points, rep,
                                   sorted(self.case.truth))

    def rejected_by(self, rep, name):
        tally = self.check(rep)
        self.assertEqual(tally.by_check[name], 1, dict(tally.by_check))
        self.assertEqual(tally.failed, 1)
        return tally

    def test_real_output_passes(self):
        tally = self.check(self.rep)
        self.assertEqual((tally.failed, tally.errors), (0, []))
        self.assertEqual(checks.check_report_csv(
            str(self.out / "report.csv"), self.rep), [])
        self.assertEqual(checks.check_svg(
            str(self.out / "figure.svg"), self.rep), [])

    def test_perturbed_weight_fails_optimality(self):
        rep = copy.deepcopy(self.rep)
        i = 5
        j, k = np.argsort(-np.abs(rep.w[i]))[:2]
        rep.w[i, j] += 1e-3      # the sum stays 1
        rep.w[i, k] -= 1e-3
        rep.l2_norm[i] = np.linalg.norm(rep.w[i])
        tally = self.check(rep)
        self.assertEqual(tally.by_check["optimality"], 1)
        self.assertEqual(tally.by_check["sum"], 0)

    def test_weight_sum_off_fails(self):
        rep = copy.deepcopy(self.rep)
        rep.w[3] *= 1.0 + 1e-6
        self.assertGreaterEqual(self.check(rep).by_check["sum"], 1)

    def test_swapped_neighbor_fails(self):
        rep = copy.deepcopy(self.rep)
        i = 7
        d2 = np.sum((self.case.points - self.case.points[i]) ** 2, axis=1)
        far = int(np.argmax(d2))
        self.assertNotIn(far, rep.nbr[i])
        rep.nbr[i, 0] = far
        self.rejected_by(rep, "neighbors")

    def test_repeated_neighbor_fails(self):
        rep = copy.deepcopy(self.rep)
        rep.nbr[2, 1] = rep.nbr[2, 0]
        self.assertEqual(checks.bad_neighbors(self.case.points, rep.nbr)[2],
                         True)

    def test_fields_are_recomputed(self):
        for name, edit in (
                ("l2_norm", lambda r: r.l2_norm.__setitem__(4, r.l2_norm[4]
                                                            * (1 + 1e-6))),
                ("residual", lambda r: r.residual.__setitem__(4, 0.5)),
                ("sum_dev", lambda r: r.sum_dev.__setitem__(4, 1e-3)),
                ("has_negative", lambda r: r.has_negative.__setitem__(
                    4, not r.has_negative[4])),
                ("converged", lambda r: r.converged.__setitem__(4, False)),
                ("stratum", lambda r: r.stratum.__setitem__(
                    4, "interior" if r.stratum[4] != "interior" else "mid"))):
            with self.subTest(name):
                rep = copy.deepcopy(self.rep)
                edit(rep)
                self.assertGreaterEqual(self.check(rep).by_check[name], 1)

    def test_swapped_ranks_fail(self):
        rep = copy.deepcopy(self.rep)
        a, b = rep.ranking[0], rep.ranking[1]
        rep.rank[a], rep.rank[b] = rep.rank[b], rep.rank[a]
        rep.ranking[0], rep.ranking[1] = b, a
        tally = self.check(rep)
        self.assertEqual(tally.by_check["rank"], 2)
        self.assertTrue(tally.errors)

    def test_unflagged_vertex_fails(self):
        rep = copy.deepcopy(self.rep)
        corner = max(self.case.truth)
        self.assertTrue(rep.has_negative[corner])
        rep.has_negative[corner] = False
        self.assertEqual(self.check(rep).by_check["vertex_flagged"], 1)

    def test_report_csv_and_svg_must_agree(self):
        rep = copy.deepcopy(self.rep)
        rep.has_negative[0] = not rep.has_negative[0]
        self.assertTrue(checks.check_report_csv(
            str(self.out / "report.csv"), rep))
        self.assertTrue(checks.check_svg(str(self.out / "figure.svg"), rep))

    def test_sweep_counts_must_agree(self):
        path = self.work / "sweep_counts.csv"
        n = int(self.rep.has_negative.sum())
        for count, ok in ((n, True), (n + 1, False)):
            path.write_text(f"lambda,flagged_count\n0.025,{count}\n")
            errors = checks.check_sweep_counts(str(path), (0.025,), [self.rep])
            self.assertEqual(errors == [], ok)

    def test_wrong_oracle_verdict_fails(self):
        truth = self.vcase.truth
        interior = min(set(range(self.vcase.p)) - truth)
        good = {"flagged": sorted(truth), "oracle_vertices": sorted(truth),
                "precision": 1.0, "recall": 1.0}
        self.assertEqual(checks.check_verify(good, truth, self.vcase.p).failed,
                         0)
        bad = dict(good, oracle_vertices=sorted(truth | {interior}),
                   recall=len(truth) / (len(truth) + 1))
        tally = checks.check_verify(bad, truth, self.vcase.p)
        self.assertEqual(tally.by_check["oracle_vs_qhull"], 1)
        self.assertEqual((tally.failed, tally.errors), (1, []))

    def test_wrong_flag_in_verify_fails(self):
        truth = self.vcase.truth
        flagged = sorted(truth - {min(truth)})
        summary = {"flagged": flagged, "oracle_vertices": sorted(truth),
                   "precision": 1.0, "recall": len(flagged) / len(truth)}
        tally = checks.check_verify(summary, truth, self.vcase.p)
        self.assertEqual(tally.by_check["flag_vs_qhull"], 1)

    def test_inconsistent_precision_is_an_error(self):
        truth = self.vcase.truth
        summary = {"flagged": sorted(truth), "oracle_vertices": sorted(truth),
                   "precision": 0.5, "recall": 1.0}
        self.assertTrue(checks.check_verify(summary, truth,
                                            self.vcase.p).errors)


if __name__ == "__main__":
    unittest.main()
