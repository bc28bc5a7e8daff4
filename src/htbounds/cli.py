"""Command-line front end.

Subcommands:

* ``sweep``       evaluate selected bounds over a range of n, write CSV/SVG
* ``bound``       evaluate one bound at one point, print value + JSON
* ``samplesize``  sample-complexity bounds for an (eps, delta) target
* ``reproduce``   regenerate the standard figure sweeps into an output dir

Exit codes: 0 success, 2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .bounds import (
    Constant,
    Exponential,
    Linear,
    phase_transition_achievability,
    phase_transition_converse,
    renyi_achievability_at_threshold,
    sample_complexity_pensia,
    sample_complexity_renyi,
)
from .distributions import Direction, kl_divergence, parse_pair
from .experiments import (
    _BOUNDS,
    CANONICAL_BOUNDS,
    ExperimentGrid,
    bounds_for,
    emit_csv,
    emit_svg,
    run_grid,
)
from .numerics import DomainError

# Sample sizes for the reproduce sweeps: every 10 up to 500, then roughly
# 10% steps up to 2000.
DEFAULT_N = tuple(range(10, 501, 10)) + (
    550, 600, 660, 730, 800, 880, 970, 1070, 1180, 1300, 1430, 1570, 1730, 1900, 2000,
)

_REPRODUCE_PAIRS = {
    "fig1": (("fig1", "bernoulli:0.5,0.51"),),
    "fig2": (("fig2", "gaussian:2,0.05"),),
    "appF": (
        ("appF_bernoulli10", "bernoulli:0.5,0.6"),
        ("appF_bernoulli20", "bernoulli:0.5,0.7"),
        ("appF_gaussian10", "gaussian:2,0.1"),
        ("appF_gaussian30", "gaussian:2,0.3"),
    ),
}

# The bounds the reproduce figures plot, where defined for the pair.
_REPRODUCE_BOUNDS = ("renyi_converse", "fano", "hellinger", "berry_esseen", "smoothing_out",
                     "np_exact")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="htbounds",
        description="Finite-sample hypothesis-testing bounds via Renyi divergences.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate bounds over a range of n")
    sw.add_argument("--pair", required=True, help="pair spec, e.g. bernoulli:0.5,0.51")
    sw.add_argument(
        "--bounds",
        default=None,
        help="comma-separated bound names (default: every bound defined for the pair)",
    )
    sw.add_argument("--n-min", type=int, default=10)
    sw.add_argument("--n-max", type=int, default=1000)
    sw.add_argument("--n-step", type=int, default=10)
    reg = sw.add_mutually_exclusive_group()
    reg.add_argument("--eps", type=float, default=0.01,
                     help="constant Type I budget (default %(default)s)")
    reg.add_argument("--linear", action="store_true", help="budget 1/n")
    reg.add_argument("--exp-rate", type=float, help="budget e^{-cn} at this rate c")
    sw.add_argument("--csv", help="CSV output path")
    sw.add_argument("--svg", help="SVG output path")
    sw.add_argument("--log-y", action="store_true", help="log-scale vertical axis in the SVG")
    sw.add_argument("--title", default="", help="SVG title")

    bd = sub.add_parser("bound", help="evaluate one bound at one point")
    bd.add_argument("--pair", required=True)
    bd.add_argument("--bound", required=True, choices=[b for b in CANONICAL_BOUNDS if b != "np_exact"])
    bd.add_argument("--n", type=int, required=True)
    budget = bd.add_mutually_exclusive_group()
    budget.add_argument("--eps", type=float, default=0.01)
    budget.add_argument("--log-eps", type=float,
                        help="log of the Type I budget; give a negative value as --log-eps=-1e6")
    bd.add_argument("--c", type=float, help="exponential rate, for the phase bounds")
    bd.add_argument("--tau", type=float,
                    help="log-LR threshold, for achievability; e.g. --tau=-2.5e1")
    bd.add_argument("--log-alpha", type=float, default=-math.inf,
                    help="log Type I term of achievability (default %(default)s); "
                         "e.g. --log-alpha=-1e3")

    ss = sub.add_parser("samplesize", help="sample-complexity bounds")
    ss.add_argument("--pair", required=True)
    ss.add_argument("--eps", type=float, required=True, help="Type I error target")
    ss.add_argument("--delta", type=float, required=True, help="Type II error target")
    ss.add_argument("--lam", type=float, help="fix the order in the Renyi bound")

    rp = sub.add_parser("reproduce", help="regenerate the standard sweeps")
    rp.add_argument("target", choices=sorted(_REPRODUCE_PAIRS))
    rp.add_argument("--outdir", default=".")
    return p


def _json_float(x):
    # JSON has no infinities: write them as the strings "inf" and "-inf",
    # which float() reads back.
    return x if x is None or math.isfinite(x) else str(x)


def _result_json(name: str, r) -> str:
    payload = {
        "bound": name,
        "value": _json_float(r.value),
        "log_value": _json_float(r.log_value),
        "optimizer": _json_float(r.optimizer),
        "kind": r.kind.value,
        "valid": r.valid,
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False)


# The phase bounds at the rate --c (a sweep derives it as -log eps / n).
_PHASE = {"phase_converse": phase_transition_converse,
          "phase_achievability": phase_transition_achievability}


def _cmd_bound(args) -> int:
    pair = parse_pair(args.pair)
    name = args.bound
    if name == "achievability":
        if args.tau is None:
            raise DomainError("achievability requires --tau")
        r = renyi_achievability_at_threshold(pair, args.n, args.tau, args.log_alpha)
    elif name in _PHASE:
        if args.c is None:
            raise DomainError(f"{name} requires --c")
        r = _PHASE[name](pair, args.n, args.c)
    else:  # the sweep's own cell at (pair, n, log eps)
        log_eps = args.log_eps if args.log_eps is not None else math.log(Constant(args.eps).eps)
        r = _BOUNDS[name].evaluate(pair, args.n, log_eps)
    rel = {"lower_bound_on_beta": ">=", "upper_bound_on_beta": "<"}[r.kind.value]
    tag = "" if r.valid else "  [degenerate]"
    print(f"{name}: beta {rel} {r.value:.12g}  (log {r.log_value:.12g}){tag}")
    print(_result_json(name, r))
    return 0


def _ceil(x: float):
    # an infinite sample size has no integer ceiling: print it as inf
    return math.ceil(x) if math.isfinite(x) else x


def _size_line(name: str, r) -> str:
    tag = "" if r.valid else "  [degenerate]"
    return f"{name}: n >= {r.value:.12g}  (ceil {_ceil(r.value)}, order {r.optimizer:.6g}){tag}"


def _cmd_samplesize(args) -> int:
    pair = parse_pair(args.pair)
    r = sample_complexity_renyi(pair, args.eps, args.delta, lam=args.lam)
    print(_size_line("renyi", r))
    print(_result_json("sample_complexity_renyi", r))
    try:
        rp = sample_complexity_pensia(pair, args.eps, args.delta)
    except DomainError as exc:
        print(f"pensia: skipped ({exc})")
    else:
        print(_size_line("pensia", rp))
        print(_result_json("sample_complexity_pensia", rp))
    return 0


def _cmd_sweep(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min or args.n_step < 1:
        raise DomainError("need 1 <= n-min <= n-max and n-step >= 1")
    ns = tuple(range(args.n_min, args.n_max + 1, args.n_step))
    if args.linear:
        regime = Linear()
    elif args.exp_rate is not None:
        regime = Exponential(args.exp_rate)
    else:
        regime = Constant(args.eps)
    bounds = None if args.bounds is None else tuple(
        b.strip() for b in args.bounds.split(",") if b.strip())
    table = run_grid(ExperimentGrid(args.pair, regime, ns, bounds))
    if args.csv:
        emit_csv(table, args.csv)
        print(f"wrote {args.csv}")
    if args.svg:
        emit_svg(table, args.svg, log_y=args.log_y, title=args.title)
        print(f"wrote {args.svg}")
    if not args.csv and not args.svg:
        # the last row, each value beside its log, which is exact where the value underflows
        last = table.rows[-1]
        print(f"n={last.n} eps={last.eps:.6g}  (log {last.log_eps:.9g})")
        for b, cell in zip(table.bounds, last.cells):
            v = "-" if cell is None else f"{cell.value:.9g}  (log {cell.log_value:.9g})"
            print(f"  {b}: {v}")
    return 0


def _cmd_reproduce(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    for tag, pair_spec in _REPRODUCE_PAIRS[args.target]:
        pair = parse_pair(pair_spec)
        bounds = bounds_for(pair, _REPRODUCE_BOUNDS)
        regimes = {
            "constant": Constant(0.01),
            "linear": Linear(),
            "exponential": Exponential(20.0 * kl_divergence(pair, Direction.REVERSE)),
        }
        for reg_name, regime in regimes.items():
            table = run_grid(ExperimentGrid(pair_spec, regime, DEFAULT_N, bounds))
            base = os.path.join(args.outdir, f"{tag}_{reg_name}")
            emit_csv(table, base + ".csv")
            emit_svg(
                table,
                base + ".svg",
                log_y=(reg_name == "exponential"),
                title=f"{pair_spec}, {reg_name} regime",
            )
            print(f"wrote {base}.csv and {base}.svg")
    return 0


def cli_main(argv=None) -> int:
    """Run one command line; return its exit code (see the module docstring).

    Once the command line has parsed, ``gc.freeze()`` moves every object
    the process holds so far, chiefly what importing numpy, scipy and this
    package built (about 41,000 tracked objects), into the permanent
    generation.  Those objects live until the process exits, yet every full
    collection, the interpreter's exit-time ones included, would walk them
    all (12-15 ms each on a 2-core VM); frozen, a fresh ``htbounds``
    process exits in 15-22 ms instead of 58-103 ms there.  Objects the
    command creates later are collected as before, and reference counting
    still frees frozen ones.  Importing ``htbounds`` leaves the collector as
    it was; but a caller that runs ``cli_main`` in its own process gets its
    current objects frozen too, so their reference cycles are no longer
    collected.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    gc.freeze()
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "samplesize":
            return _cmd_samplesize(args)
        return _cmd_reproduce(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # every input error of the library subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())
