"""Self-tests of the benchmark: the checker catches planted faults, and tracing
changes nothing the program writes.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import check
import run
import workloads
from tracer import Tracer

TABLE = workloads.Table(
    "t", "bernoulli:0.5,0.6", "constant", (10, 20, 30),
    ("renyi_converse", "achievability", "fano", "np_exact"),
)
HEADER = ["n", "eps", "log_eps"] + [f"{b}_{c}" for b in TABLE.bounds for c in ("value", "optimizer", "valid")]
# A clean table: converse below the oracle, achievability above it, oracle falling in n.
CLEAN = {
    10: {"renyi_converse": 0.5, "achievability": 0.9, "fano": 0.2, "np_exact": 0.8},
    20: {"renyi_converse": 0.3, "achievability": "", "fano": 0.1, "np_exact": 0.6},
    30: {"renyi_converse": 0.1, "achievability": 0.5, "fano": 0.05, "np_exact": 0.4},
}


def write_table(path: str, cells: dict, drop_row: int | None = None) -> None:
    lines = [",".join(HEADER)]
    for n, row in cells.items():
        if n == drop_row:
            continue
        rec = [str(n), "0.01", "-4.6051701859880909"]
        for b in TABLE.bounds:
            v = row[b]
            rec += ["" if v == "" else repr(v), "", "true"]
        lines.append(",".join(rec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CheckerTest(unittest.TestCase):
    def setUp(self) -> None:
        self.dir = tempfile.mkdtemp()
        self.path = os.path.join(self.dir, "t.csv")

    def tearDown(self) -> None:
        shutil.rmtree(self.dir)

    def planted(self, n: int, bound: str, value, **kw) -> check.TableResult:
        cells = {k: dict(v) for k, v in CLEAN.items()}
        cells[n][bound] = value
        write_table(self.path, cells, **kw)
        return check.check_table(TABLE, self.path, True)

    def test_clean_table_passes(self) -> None:
        write_table(self.path, CLEAN)
        res = check.check_table(TABLE, self.path, True)
        self.assertEqual((res.attempted, res.empty, res.failed), (12, 1, {}))

    def test_negative_beta(self) -> None:
        res = self.planted(20, "np_exact", -0.25)
        self.assertIn((20, "np_exact"), res.failed)
        self.assertEqual(res.new_failures, len(res.failed))

    def test_oracle_rounding_noise_is_known(self) -> None:
        # beta at n=20 is already below the floor, so -1e-13 at n=30 is rounding noise
        cells = {k: dict(v) for k, v in CLEAN.items()}
        cells[20].update(renyi_converse=1e-30, np_exact=1e-14)
        cells[30].update(renyi_converse=1e-45, np_exact=-1e-13)
        write_table(self.path, cells)
        res = check.check_table(TABLE, self.path, True)
        self.assertEqual(set(res.failed), {(30, "np_exact"), (30, "renyi_converse")})
        self.assertEqual(res.known, set(res.failed))
        self.assertEqual(res.new_failures, 0)

    def test_floor_without_evidence_is_new(self) -> None:
        # the previous oracle, 0.6, says beta is far above the floor at n=30
        res = self.planted(30, "np_exact", -1e-13)
        self.assertIn((30, "np_exact"), res.failed)
        self.assertEqual(res.known, set())

    def test_floor_marker_in_reference_is_known(self) -> None:
        write_table(self.path, CLEAN)
        ref = check.reference_entries(TABLE, self.path)["values"]
        ref["np_exact"][2] = check.FLOOR
        ref["renyi_converse"][2] = None
        cells = {k: dict(v) for k, v in CLEAN.items()}
        cells[30].update(renyi_converse=1e-45, np_exact=0.0)
        write_table(self.path, cells)
        res = check.check_table(TABLE, self.path, True, ref)
        self.assertEqual(set(res.failed), {(30, "np_exact"), (30, "renyi_converse")})
        self.assertEqual(res.new_failures, 0)

    def test_oracle_regression_to_zero_is_new(self) -> None:
        write_table(self.path, CLEAN)
        ref = check.reference_entries(TABLE, self.path)["values"]
        res = self.planted(20, "np_exact", 0.0)
        self.assertEqual(set(res.failed), {(20, "np_exact"), (20, "renyi_converse")})
        res = check.check_table(TABLE, self.path, True, ref)
        self.assertEqual(res.known, set())
        self.assertEqual(res.new_failures, 2)

    def test_oracle_zero_everywhere_is_new(self) -> None:
        cells = {k: dict(v, np_exact=0.0) for k, v in CLEAN.items()}
        write_table(self.path, cells)
        res = check.check_table(TABLE, self.path, True)
        self.assertEqual(res.known, set())
        self.assertEqual(res.new_failures, 6)  # the oracle and the converse on every row

    def test_floor_evidence_from_an_earlier_table(self) -> None:
        cells = {k: dict(v) for k, v in CLEAN.items()}
        cells[10].update(renyi_converse=1e-40, np_exact=-1e-13)
        cells[20].update(renyi_converse=1e-50, np_exact=1e-14)
        cells[30].update(renyi_converse=1e-60, np_exact=-1e-13)
        write_table(self.path, cells)
        seen = {(TABLE.pair, "0.01"): [(5, 1e-15)]}
        res = check.check_table(TABLE, self.path, True, seen=seen)
        self.assertEqual(len(res.failed), 4)
        self.assertEqual(res.new_failures, 0)
        self.assertEqual(check.check_table(TABLE, self.path, True).new_failures, 2)  # n=10 has no evidence

    def test_converse_above_oracle(self) -> None:
        res = self.planted(30, "renyi_converse", 0.45)
        self.assertEqual(res.failed, {(30, "renyi_converse"): "converse above oracle"})

    def test_achievability_below_oracle(self) -> None:
        res = self.planted(10, "achievability", 0.7)
        self.assertEqual(res.failed, {(10, "achievability"): "achievability below oracle"})

    def test_converse_above_achievability(self) -> None:
        # no oracle on the row: the two bounds contradict each other
        res = self.planted(30, "np_exact", "")
        self.assertEqual(res.failed, {})
        cells = {k: dict(v) for k, v in CLEAN.items()}
        cells[30].update(renyi_converse=0.55, np_exact="")
        write_table(self.path, cells)
        res = check.check_table(TABLE, self.path, True)
        reason = "converse above achievability"
        self.assertEqual(res.failed, {(30, "renyi_converse"): reason, (30, "achievability"): reason})
        self.assertEqual(res.new_failures, 2)

    def test_oracle_growing_in_n(self) -> None:
        res = self.planted(30, "np_exact", 0.7)
        self.assertEqual(res.failed[(30, "np_exact")], "oracle beta grew with n")

    def test_nan(self) -> None:
        res = self.planted(10, "fano", math.nan)
        self.assertEqual(res.failed, {(10, "fano"): "not a probability"})

    def test_missing_cell(self) -> None:
        res = self.planted(10, "fano", 0.2, drop_row=20)
        self.assertEqual(set(res.failed), {(20, b) for b in TABLE.bounds})

    def test_nonzero_exit(self) -> None:
        write_table(self.path, CLEAN)
        res = check.check_table(TABLE, self.path, False)
        self.assertEqual(len(res.failed), res.attempted)
        self.assertEqual(res.new_failures, res.attempted)

    def test_reference_mismatch(self) -> None:
        write_table(self.path, CLEAN)
        ref = check.reference_entries(TABLE, self.path)["values"]
        ref["fano"][0] = 0.2 * (1 + 10 * check.REF_RTOL)
        ref["achievability"][1] = 0.7
        res = check.check_table(TABLE, self.path, True, ref)
        self.assertEqual(set(res.failed), {(10, "fano"), (20, "achievability")})


class TracerTest(unittest.TestCase):
    def test_wrapper_passes_results_and_exceptions(self) -> None:
        tracer = Tracer()

        def f(x, *, scale=1.0):
            if x < 0:
                raise KeyError(x)
            return x * scale

        g = tracer.wrap(f, "numerics.f")
        self.assertEqual(g(2.0, scale=3.0), 6.0)
        with self.assertRaises(KeyError):
            g(-1.0)
        self.assertEqual(tracer.summary()["names"]["numerics.f"]["calls"], 2)

    def test_missing_name_is_absent(self) -> None:
        sys.path.insert(0, str(run.ROOT / "src"))
        import htbounds.bounds

        saved = htbounds.bounds.q_inverse
        del htbounds.bounds.q_inverse
        try:
            tracer = Tracer()
            tracer.install()
            self.assertIn("htbounds.bounds.q_inverse", tracer.absent)
        finally:
            htbounds.bounds.q_inverse = saved


class TracedOutputTest(unittest.TestCase):
    def test_traced_csvs_are_byte_identical(self) -> None:
        inv = workloads.plan("sweep-phase", 0)[0]
        inv = workloads._sweep(
            "bern", inv.tables[0].pair, ("--eps", "0.01"), "constant",
            inv.tables[0].ns[3:7], inv.tables[0].bounds,
        )
        (run.HERE / "_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=run.HERE / "_work"))
        try:
            env = {k: v for k, v in os.environ.items() if k != "HYPOTEST_THREADS"}
            deadline = time.perf_counter() + 120.0
            plain = run.run_pass([inv], work / "plain", env, deadline, {}, traced=False)
            traced = run.run_pass([inv], work / "traced", env, deadline, {}, traced=True)
            self.assertEqual([c.rc for c in plain.children + traced.children], [0, 0])
            self.assertTrue(filecmp.cmp(work / "plain/out/bern.csv", work / "traced/out/bern.csv", shallow=False))
            self.assertEqual((plain.failed, traced.failed), (0, 0))
            self.assertGreater(traced.children[0].trace["spans"], 0)
        finally:
            shutil.rmtree(work)


class DeadlineTest(unittest.TestCase):
    def test_child_past_the_deadline_is_a_timeout(self) -> None:
        inv = workloads.plan("sweep-phase", 0)[0]
        (run.HERE / "_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=run.HERE / "_work"))
        try:
            env = {k: v for k, v in os.environ.items() if k != "HYPOTEST_THREADS"}
            result = run.run_pass([inv], work / "late", env, time.perf_counter(), {}, traced=False)
            self.assertTrue(result.children[0].timed_out)
            self.assertEqual(set(result.reasons), {"timeout"})
            self.assertFalse(result.ok)
        finally:
            shutil.rmtree(work)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self) -> None:
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.per_layer_spec()
        )


if __name__ == "__main__":
    unittest.main()
