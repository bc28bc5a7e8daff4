"""Capture the reference values the checker compares outputs against.

Usage (from the repository root): python3 perfbench/capture_reference.py [--seed 0]

Runs one pass of every workload and stores, per table, each cell's value
("" for an empty cell) in perfbench/reference/<workload>.json.  Cells that
fail any other check get no reference (null); oracle values within the
rounding floor get the marker "floor" in place of their value.  The checker
applies a reference table wherever a run's table has the same pair and
sample sizes: on every seed for the seed-independent tables (all of
``reproduce``, ``bern_fixed_dense`` of ``oracle``), on the captured seed only
for the seed-drawn ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import time

import check
import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    env = {k: v for k, v in os.environ.items() if k != "HYPOTEST_THREADS"}
    refdir = run.HERE / "reference"
    refdir.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = run.HERE / "_work" / "capture" / workload
        shutil.rmtree(work, ignore_errors=True)
        invs = workloads.plan(workload, args.seed)
        result = run.run_pass(invs, work, env, time.perf_counter() + 600.0, {}, traced=False)
        if any(c.rc != 0 for c in result.children):
            raise SystemExit(f"{workload}: an invocation failed; see {work}")
        tables = {
            t.name: check.reference_entries(t, str(work / "out" / f"{t.name}.csv"))
            for inv in invs
            for t in inv.tables
        }
        with open(refdir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "rel_tol": check.REF_RTOL, "tables": tables}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {result.attempted} cells, {result.failed} without reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
