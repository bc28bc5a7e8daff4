"""Spans around htbounds' public functions, recorded from outside the program.

``Tracer.install`` replaces each public function at the name its calling
module imported it under (``htbounds.bounds.renyi_divergence``,
``htbounds.experiments.np_exact_bernoulli``, ...) with a wrapper that
records one span per call: name, start, end, parent span and thread, plus
thread CPU time.  Wrappers pass arguments, results and exceptions through
unchanged.  A name that no longer exists is listed as absent.

Spans stay in per-thread buffers of doubles until ``summary`` reduces them
to the per-layer figures the benchmark reports.  Self time is a span's
thread CPU time minus that of the child spans nested in it on the same
thread; the one wall-clock self time is ``run_grid``'s, its duration minus
the union of its cell spans' intervals, which is pool dispatch and waiting.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("cli", "experiments", "bounds", "distributions", "numerics", "oracle")

# Span record columns, stored as doubles.
NAME, CTX, TID, SID, PARENT, T0, T1, CPU, SELF_CPU, FLAGS = range(10)
NCOL = 10

# Flag bits.
RAISED, SCALAR, EDGE, GRID, INVALID = 1, 2, 4, 8, 16

# Bound functions called per grid cell, and the column each belongs to;
# threshold_for_rate and renyi_achievability_at_threshold join the
# phase_transition_achievability call before them into one achievability cell.
CELL_FUNCS = {
    "bounds.renyi_converse": "renyi_converse",
    "bounds.phase_transition_converse": "phase_converse",
    "bounds.phase_transition_achievability": "phase_achievability",
    "bounds.threshold_for_rate": "achievability",
    "bounds.renyi_achievability_at_threshold": "achievability",
    "bounds.fano_bound": "fano",
    "bounds.hellinger_bound": "hellinger",
    "bounds.berry_esseen_bound": "berry_esseen",
    "bounds.smoothing_out_bound": "smoothing_out",
    "oracle.np_exact_gaussian": "np_exact",
    "oracle.np_exact_bernoulli": "np_exact",
    "oracle.np_exact_discrete_bruteforce": "np_exact",
}


class Tracer:
    """Collects spans from wrapped htbounds functions in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.contexts: list[str] = ["-"]
        self.absent: list[str] = []
        self.ctx = 0
        self.open_grid = -1
        self._ids = itertools.count()
        self._tids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._edge_cap = 1.0e6

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.buf = array("d")
        local.tid = next(self._tids)
        self._buffers.append(local.buf)
        return local.stack

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, before=None, after=None):
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``before(args, kwargs, sid)`` may return replacement args and flag
        bits; ``after(args, result)`` returns flag bits for a normal return.
        """
        name_id = self._name_id(name)
        local, ids, tracer = self._local, self._ids, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_state()
            sid = next(ids)
            parent = stack[-1][0] if stack else tracer.open_grid
            flags = 0
            if before is not None:
                args, flags = before(args, kwargs, sid)
            ctx = tracer.ctx
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                flags |= RAISED
                raise
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                cpu = c1 - c0
                if stack:
                    stack[-1][1] += cpu
                if after is not None and not flags & RAISED:
                    flags |= after(args, result)
                local.buf.extend(
                    (name_id, ctx, local.tid, sid, parent, t0, t1, cpu, cpu - frame[1], flags)
                )

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _grid_before(self, args, kwargs, sid):
        grid = args[0] if args else kwargs.get("grid")
        family = getattr(grid, "pair_spec", "?").partition(":")[0]
        regime = type(getattr(grid, "regime", None)).__name__.lower()
        key = f"{family}.{regime}"
        if key not in self.contexts:
            self.contexts.append(key)
        self.ctx = self.contexts.index(key)
        self.open_grid = sid
        return args, 0

    def _grid_after(self, args, result):
        self.ctx = 0
        self.open_grid = -1
        return 0

    def _objective_before(self, args, kwargs, sid):
        x = args[0] if args else next(iter(kwargs.values()), 0.0)
        return args, (GRID if np.ndim(x) > 0 else SCALAR)

    def _maximize_before(self, args, kwargs, sid):
        if args:
            args = (self.wrap(args[0], "bounds.objective", before=self._objective_before),) + args[1:]
        return args, 0

    def _maximize_after(self, args, result):
        bracket = args[1] if len(args) > 1 else None
        try:
            x = float(result[0])
            lo, hi, tol = bracket.lo, bracket.hi, bracket.tolerance
        except (AttributeError, TypeError, IndexError):
            return 0
        at_lo = x - lo <= 2.0 * tol
        at_hi = (hi - x <= 2.0 * tol) if math.isfinite(hi) else (x - lo >= 0.999 * self._edge_cap)
        return EDGE if (at_lo or at_hi) else 0

    @staticmethod
    def _renyi_before(args, kwargs, sid):
        lam = args[1] if len(args) > 1 else kwargs.get("lam", 0.0)
        return args, (SCALAR if np.ndim(lam) == 0 else 0)

    @staticmethod
    def _oracle_after(args, result):
        beta = getattr(result, "beta", None)
        return 0 if (beta is not None and 0.0 < beta <= 1.0) else INVALID

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name that exists; record the missing ones as absent."""
        numerics = importlib.import_module("htbounds.numerics")
        self._edge_cap = float(getattr(numerics, "EXPANSION_CAP", 1.0e6))
        table = [
            ("htbounds.cli", "run_grid", "experiments.run_grid", self._grid_before, self._grid_after),
            ("htbounds.cli", "emit_csv", "experiments.emit_csv", None, None),
            ("htbounds.cli", "emit_svg", "experiments.emit_svg", None, None),
            ("htbounds.cli", "kl_divergence", "distributions.kl_divergence", None, None),
        ]
        for fn in (
            "renyi_converse", "renyi_achievability_at_threshold", "phase_transition_converse",
            "phase_transition_achievability", "threshold_for_rate", "fano_bound",
            "hellinger_bound", "berry_esseen_bound", "smoothing_out_bound",
        ):
            table.append(("htbounds.experiments", fn, f"bounds.{fn}", None, None))
        for fn in ("np_exact_gaussian", "np_exact_bernoulli", "np_exact_discrete_bruteforce"):
            table.append(("htbounds.experiments", fn, f"oracle.{fn}", None, self._oracle_after))
        table += [
            ("htbounds.bounds", "renyi_divergence", "distributions.renyi_divergence", self._renyi_before, None),
            ("htbounds.bounds", "kl_divergence", "distributions.kl_divergence", None, None),
            ("htbounds.bounds", "hellinger_squared", "distributions.hellinger_squared", None, None),
            ("htbounds.bounds", "llr_moments", "distributions.llr_moments", None, None),
            ("htbounds.bounds", "maximize_scalar", "numerics.maximize_scalar", self._maximize_before, self._maximize_after),
            ("htbounds.bounds", "q_inverse", "numerics.q_inverse", None, None),
            ("htbounds.bounds", "log_diff_exp", "numerics.log_diff_exp", None, None),
            ("htbounds.numerics", "q_inverse", "numerics.q_inverse", None, None),
            ("htbounds.oracle", "q_inverse_log", "numerics.q_inverse_log", None, None),
            ("htbounds.oracle", "q_function", "numerics.q_function", None, None),
            ("htbounds.oracle", "log_q", "numerics.log_q", None, None),
            ("htbounds.oracle", "log_diff_exp", "numerics.log_diff_exp", None, None),
        ]
        for module_name, attr, name, before, after in table:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, before, after))

    def call_root(self, fn, *args):
        """Call ``fn`` under a root span named ``cli.cli_main``."""
        return self.wrap(fn, "cli.cli_main")(*args)

    # -- reduction -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """Every recorded span as an (N, NCOL) array."""
        if not self._buffers:
            return np.zeros((0, NCOL))
        return np.concatenate([np.frombuffer(b, dtype=float) for b in self._buffers]).reshape(-1, NCOL)

    def summary(self) -> dict:
        """Per-name totals, per-layer self time and per-cell CPU times."""
        sp = self.spans()
        name_col = sp[:, NAME].astype(int)
        flags = sp[:, FLAGS].astype(int)
        per_name = {}
        for i, name in enumerate(self.names):
            rows = sp[name_col == i]
            f = flags[name_col == i]
            per_name[name] = {
                "calls": int(rows.shape[0]),
                "cpu_s": float(rows[:, CPU].sum()),
                "self_cpu_s": float(rows[:, SELF_CPU].sum()),
                "wall_s": float((rows[:, T1] - rows[:, T0]).sum()),
                "scalar_calls": int(np.count_nonzero(f & SCALAR)),
                "scalar_self_cpu_s": float(rows[(f & SCALAR) > 0, SELF_CPU].sum()),
                "grid_cpu_s": float(rows[(f & GRID) > 0, CPU].sum()),
                "scalar_cpu_s": float(rows[(f & SCALAR) > 0, CPU].sum()),
                "edges": int(np.count_nonzero(f & EDGE)),
                "invalid": int(np.count_nonzero(f & INVALID)),
            }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, agg in per_name.items():
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + agg["self_cpu_s"]
        grid_name = self.names.index("experiments.run_grid") if "experiments.run_grid" in self.names else -1
        grids = sp[name_col == grid_name]
        return {
            "spans": int(sp.shape[0]),
            "absent": self.absent,
            "names": per_name,
            "layers": layers,
            "run_grid_self_wall_s": self._grid_self_wall(sp, grids),
            "cells": self._cells(sp, grids),
        }

    @staticmethod
    def _grid_self_wall(sp, grids) -> float:
        total = 0.0
        parent = sp[:, PARENT].astype(int)
        for row in grids:
            kids = sp[parent == int(row[SID])]
            covered, end = 0.0, row[T0]
            for t0, t1 in sorted(zip(kids[:, T0], kids[:, T1])):
                t0, t1 = max(t0, end), min(t1, row[T1])
                if t1 > t0:
                    covered += t1 - t0
                    end = t1
            total += (row[T1] - row[T0]) - covered
        return float(total)

    def _cells(self, sp, grids) -> dict:
        # Cell spans are the direct children of run_grid, on any thread,
        # taken per thread in start order.
        is_cell = np.isin(sp[:, PARENT], grids[:, SID])
        cells: dict[str, list] = {}
        for tid in np.unique(sp[is_cell, TID]):
            rows = sp[is_cell & (sp[:, TID] == tid)]
            rows = rows[np.argsort(rows[:, T0])]
            names = [self.names[int(r[NAME])] for r in rows]
            i = 0
            while i < len(rows):
                j = i + 1
                bound = CELL_FUNCS.get(names[i])
                if names[i] == "bounds.phase_transition_achievability" and j < len(rows) and names[j] == "bounds.threshold_for_rate":
                    bound = "achievability"
                    j += 1
                    if j < len(rows) and names[j] == "bounds.renyi_achievability_at_threshold":
                        j += 1
                if bound is not None:
                    part = rows[i:j]
                    key = f"{bound}|{self.contexts[int(part[0, CTX])]}"
                    empty = bool(np.any(part[:, FLAGS].astype(int) & RAISED))
                    cells.setdefault(key, []).append(
                        [round(float(part[:, CPU].sum()) * 1e6, 3), int(empty)]
                    )
                i = j
        return cells
