"""htbounds benchmark: run one workload, check every output cell, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

This process runs the workload's ``htbounds`` invocations one after
another, each in a fresh interpreter (``perfbench/child.py``), one child at
a time: a closed loop with a single client.  ``HYPOTEST_THREADS`` is removed
from the children's environment, so they use the default pool size.

With ``--trace 0`` it repeats passes over the workload while the
next one still fits in ``--seconds`` (at least one) and prints the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and one traced
pass and prints the per-layer metrics; the traced pass must write the same
CSV bytes.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

# Every run ends within this many seconds of its start; a child still
# running then is killed, its cells fail as "timeout" and the run is
# incorrect, since its output cannot be checked.  This caps how much slower
# the program may get and still be measured: a --trace 1 pass pair of
# reproduce takes about 60 s at the seed commit.
DEADLINE_S = 170.0

# Layer self times must cover this share of the children's compute CPU
# (process CPU inside cli_main); the rest is unwrapped code and tracing.
ACCOUNTED_MIN = 0.95

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB"}

_ALL_FAMILY_REGIMES = tuple(
    f"{f}.{r}" for f in ("bernoulli", "gaussian") for r in ("constant", "linear", "exponential")
) + ("discrete.constant", "discrete.linear")
_PHASE_FAMILY_REGIMES = ("bernoulli.constant", "bernoulli.linear", "discrete.constant", "discrete.linear")

# Per-cell timings reported for every (bound, family, regime) some workload runs.
CELL_METRICS = {
    "renyi_converse": _ALL_FAMILY_REGIMES,
    "berry_esseen": _ALL_FAMILY_REGIMES,
    "phase_converse": _PHASE_FAMILY_REGIMES,
    "phase_achievability": _PHASE_FAMILY_REGIMES,
    "achievability": _PHASE_FAMILY_REGIMES,
    "smoothing_out": ("gaussian.constant", "gaussian.linear", "gaussian.exponential"),
}
ORACLE_CELLS = _ALL_FAMILY_REGIMES[:6] + ("discrete.constant",)
ORACLE_FUNCS = ("np_exact_gaussian", "np_exact_bernoulli", "np_exact_discrete_bruteforce")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("cli.import_s", "s", "lower"),
        ("experiments.run_grid.self_s", "s", "lower"),
        ("experiments.emit_csv.s", "s", "lower"),
        ("experiments.emit_svg.s", "s", "lower"),
        ("experiments.cells", "count", "higher"),
        ("experiments.cells_empty", "count", "lower"),
    ]
    for bound, combos in CELL_METRICS.items():
        spec += [(f"bounds.{bound}.{c}.us_per_cell", "us", "lower") for c in combos]
        spec += [(f"bounds.{bound}.p99_us", "us", "lower"), (f"bounds.{bound}.total_s", "s", "lower")]
    spec.append(("bounds.closed_form.us_per_cell", "us", "lower"))
    spec += [
        ("distributions.renyi_divergence.calls", "count", "lower"),
        ("distributions.renyi_divergence.scalar_calls", "count", "lower"),
        ("distributions.renyi_divergence.self_s", "s", "lower"),
        ("distributions.renyi_divergence.scalar_us", "us", "lower"),
        ("numerics.maximize_scalar.calls", "count", "lower"),
        ("numerics.maximize_scalar.self_s", "s", "lower"),
        ("numerics.maximize_scalar.grid_s", "s", "lower"),
        ("numerics.maximize_scalar.refine_s", "s", "lower"),
        ("numerics.maximize_scalar.evals_per_call", "count", "lower"),
        ("numerics.maximize_scalar.edge_frac", "ratio", "lower"),
        ("numerics.q_inverse.calls", "count", "lower"),
        ("numerics.q_inverse.self_s", "s", "lower"),
        ("numerics.q_inverse_log.calls", "count", "lower"),
        ("numerics.q_inverse_log.self_s", "s", "lower"),
    ]
    spec += [(f"oracle.np_exact.{c}.us_per_cell", "us", "lower") for c in ORACLE_CELLS]
    spec += [(f"oracle.{fn}.self_s", "s", "lower") for fn in ORACLE_FUNCS]
    spec += [("oracle.invalid", "count", "lower"), ("oracle.total_s", "s", "lower")]
    spec += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [("trace.overhead_s", "s", "lower"), ("trace.accounted_frac", "ratio", "higher")]
    return spec


@dataclass
class Child:
    rc: int
    wall_s: float
    maxrss_kb: int
    record: dict | None
    trace: dict | None
    timed_out: bool = False


@dataclass
class Pass:
    children: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known: int = 0
    new: int = 0
    empty: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def setup_s(self) -> float:
        return sum(c.record["setup_s"] for c in self.children if c.record)

    @property
    def ok(self) -> bool:
        return self.new == 0 and all(c.rc == 0 for c in self.children)


def spawn(argv, record_path, trace_path, log_path, env, timeout) -> Child:
    """Run one child to completion; returns its exit code, wall time and max RSS."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(record_path),
           str(trace_path) if trace_path else "-", "--", *argv]
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)

    def load(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, TypeError):
            return None

    record = load(record_path) if rc == 0 else None
    if record is not None and not record.get("htbounds_file", "").startswith(str(ROOT / "src")):
        rc = -1  # imported some other htbounds than the checkout's
    trace = load(trace_path) if trace_path and rc == 0 else None
    return Child(rc, wall, usage.ru_maxrss, record, trace, killed.is_set() and rc != 0)


def run_pass(invs, passdir: Path, env, deadline: float, refs: dict, traced: bool) -> Pass:
    """One pass over the workload's invocations, every output cell checked."""
    out = passdir / "out"
    out.mkdir(parents=True)
    result = Pass()
    seen: dict = {}  # oracle values of the pass, the checker's evidence of the rounding floor
    for k, inv in enumerate(invs):
        argv = [a.replace("{out}", str(out)) for a in inv.argv]
        child = spawn(argv, passdir / f"{k}.record.json", passdir / f"{k}.trace.json" if traced else None,
                      passdir / f"{k}.log", env, deadline - time.perf_counter())
        result.children.append(child)
        for table, res in zip(inv.tables, check.check_invocation(inv, str(out), child.rc == 0, refs, seen)):
            if child.timed_out:
                res.failed = dict.fromkeys(res.failed, "timeout")
            result.attempted += res.attempted
            result.failed += len(res.failed)
            result.known += len(res.known)
            result.new += res.new_failures
            result.empty += res.empty
            for (n, b), reason in sorted(res.failed.items()):
                result.reasons[reason] += 1
                if (n, b) not in res.known and len(result.examples) < 10:
                    result.examples.append(f"{table.name} n={n} {b}: {reason} {res.details.get((n, b), '')}")
    return result


def load_references(workload: str) -> dict:
    """The workload's reference tables; each applies wherever its pair and n match."""
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return text
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, passes) -> dict:
    first = next((c.record for p in passes for c in p.children if c.record), {}) or {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "git_sha": _git_sha(),
        "hypotest_threads_in_parent": os.environ.get("HYPOTEST_THREADS"),
        "hypotest_threads_cleared": all(
            c.record.get("hypotest_threads") is None for p in passes for c in p.children if c.record
        ),
        "passes": len(passes),
        "invocations_per_pass": len(passes[0].children) if passes else 0,
    }


def end_to_end(passes) -> dict:
    rss = [c.maxrss_kb for p in passes for c in p.children]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "cells_per_s": statistics.median(p.attempted / max(p.wall_s - p.setup_s, 1e-9) for p in passes),
        "peak_rss_mb": max(rss) / 1024.0,
    }


def _median(values):
    return statistics.median(values) if values else None


def _p99(values):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def layer_metrics(traced: Pass, plain: Pass) -> tuple[dict, list, list]:
    """Per-layer metrics of a traced pass.

    Returns the values, the metrics with nothing to measure on this workload
    (reported as 0), and the traced names missing from the program.
    """
    names: dict = {}
    cells: dict = {}
    layers: Counter = Counter()
    grid_self = 0.0
    absent = set()
    for c in traced.children:
        if not c.trace:
            continue
        absent.update(c.trace["absent"])
        grid_self += c.trace["run_grid_self_wall_s"]
        layers.update(c.trace["layers"])
        for name, agg in c.trace["names"].items():
            acc = names.setdefault(name, Counter())
            acc.update(agg)
        for key, vals in c.trace["cells"].items():
            cells.setdefault(key, []).extend(vals)

    def agg(name, key):
        return names[name][key] if name in names else None

    def cell_us(bound, combo=None):
        out = []
        for key, vals in cells.items():
            b, _, fr = key.partition("|")
            if b == bound and (combo is None or fr == combo):
                out += [us for us, empty in vals if not empty]
        return out

    def cell_total_s(bound):
        return sum(us for key, vals in cells.items() if key.partition("|")[0] == bound for us, _ in vals) / 1e6

    m: dict = {
        "cli.import_s": sum(c.record["import_s"] for c in traced.children if c.record),
        "experiments.run_grid.self_s": grid_self if "experiments.run_grid" in names else None,
        "experiments.emit_csv.s": agg("experiments.emit_csv", "wall_s"),
        "experiments.emit_svg.s": agg("experiments.emit_svg", "wall_s"),
        "experiments.cells": traced.attempted,
        "experiments.cells_empty": traced.empty,
    }
    for bound, combos in CELL_METRICS.items():
        for combo in combos:
            m[f"bounds.{bound}.{combo}.us_per_cell"] = _median(cell_us(bound, combo))
        m[f"bounds.{bound}.p99_us"] = _p99(cell_us(bound))
        m[f"bounds.{bound}.total_s"] = cell_total_s(bound) if cell_us(bound) else None
    m["bounds.closed_form.us_per_cell"] = _median(cell_us("fano") + cell_us("hellinger"))
    rd = "distributions.renyi_divergence"
    ms = "numerics.maximize_scalar"
    calls = agg(ms, "calls")
    m.update({
        f"{rd}.calls": agg(rd, "calls"),
        f"{rd}.scalar_calls": agg(rd, "scalar_calls"),
        f"{rd}.self_s": agg(rd, "self_cpu_s"),
        f"{rd}.scalar_us": (agg(rd, "scalar_self_cpu_s") / agg(rd, "scalar_calls") * 1e6)
        if agg(rd, "scalar_calls") else None,
        f"{ms}.calls": calls,
        f"{ms}.self_s": agg(ms, "self_cpu_s"),
        f"{ms}.grid_s": agg("bounds.objective", "grid_cpu_s"),
        f"{ms}.refine_s": agg("bounds.objective", "scalar_cpu_s"),
        f"{ms}.evals_per_call": agg("bounds.objective", "calls") / calls if calls else None,
        f"{ms}.edge_frac": agg(ms, "edges") / calls if calls else None,
        "numerics.q_inverse.calls": agg("numerics.q_inverse", "calls"),
        "numerics.q_inverse.self_s": agg("numerics.q_inverse", "self_cpu_s"),
        "numerics.q_inverse_log.calls": agg("numerics.q_inverse_log", "calls"),
        "numerics.q_inverse_log.self_s": agg("numerics.q_inverse_log", "self_cpu_s"),
    })
    for combo in ORACLE_CELLS:
        m[f"oracle.np_exact.{combo}.us_per_cell"] = _median(cell_us("np_exact", combo))
    for fn in ORACLE_FUNCS:
        m[f"oracle.{fn}.self_s"] = agg(f"oracle.{fn}", "self_cpu_s")
    oracle_names = [f"oracle.{fn}" for fn in ORACLE_FUNCS if f"oracle.{fn}" in names]
    m["oracle.invalid"] = sum(names[n]["invalid"] for n in oracle_names) if oracle_names else None
    m["oracle.total_s"] = sum(names[n]["cpu_s"] for n in oracle_names) if oracle_names else None
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    compute = sum(c.record["compute_cpu_s"] for c in traced.children if c.record)
    m["trace.overhead_s"] = traced.wall_s - plain.wall_s
    m["trace.accounted_frac"] = sum(layers.values()) / compute if compute else None
    missing = [name for name, value in m.items() if value is None]
    for name in missing:
        m[name] = 0.0
    return m, sorted(missing), sorted(absent)


def _same_csvs(a: Path, b: Path) -> list[str]:
    names = sorted(p.name for p in a.glob("*.csv"))
    if names != sorted(p.name for p in b.glob("*.csv")):
        return ["different CSV file sets"]
    return [n for n in names if not filecmp.cmp(a / n, b / n, shallow=False)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "htbounds" / "cli.py").is_file():
        print(f"error: no htbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "HYPOTEST_THREADS"}
    invs = workloads.plan(args.workload, args.seed)
    refs = load_references(args.workload)
    print(f"htbounds benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    passes: list[Pass] = []
    if args.trace:
        passes.append(run_pass(invs, work / "plain", env, deadline, refs, traced=False))
        passes.append(run_pass(invs, work / "traced", env, deadline, refs, traced=True))
    else:
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(invs, work / f"pass{len(passes)}", env, deadline, refs, traced=False))
            now = time.perf_counter()
            if now + (now - t_pass) > min(start + args.seconds, deadline):
                break

    record = run_record(args, passes)
    print("record " + json.dumps(record, sort_keys=True))
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p.wall_s:.3f} s, setup {p.setup_s:.3f} s, {p.attempted} cells, "
              f"{p.empty} empty, {p.failed} failed ({p.known} within the oracle rounding floor), "
              f"exit codes {sorted(set(c.rc for c in p.children))}"
              + (f", {sum(c.timed_out for c in p.children)} killed at the {DEADLINE_S:g} s deadline"
                 if any(c.timed_out for c in p.children) else ""))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.ok for p in passes) and record["hypotest_threads_cleared"]
    reasons = sum((p.reasons for p in passes), Counter())
    if reasons:
        print("failed cells by check: " + ", ".join(f"{r}: {k}" for r, k in sorted(reasons.items())))
    for line in (passes[0].examples if passes else [])[:10]:
        print("  new failure: " + line)

    if args.trace:
        same = _same_csvs(work / "plain" / "out", work / "traced" / "out")
        if same:
            correct = False
            print("traced run wrote different CSVs: " + ", ".join(same))
        values, missing, absent = layer_metrics(passes[1], passes[0])
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for name, unit, _ in per_layer_spec():
            print(f"{name:58s} {values[name]:.6g} {unit}" + ("  (absent)" if name in missing else ""))
        if absent:
            print("traced names absent from the program: " + ", ".join(absent))
        if values["trace.accounted_frac"] < ACCOUNTED_MIN:
            print(f"warning: layer self times cover only {values['trace.accounted_frac']:.3f} of the "
                  f"children's compute CPU; the trace misses work (stated slack {1 - ACCOUNTED_MIN:.0%})")
    else:
        e2e = end_to_end(passes)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
        for name, value in e2e.items():
            print(f"{name:12s} {value:.6g} {E2E_UNITS[name]}")
    print(f"{'failed_frac':12s} {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} cells)")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
