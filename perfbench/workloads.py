"""The benchmark's workloads: which htbounds invocations a pass makes.

A pass is a fixed list of CLI invocations.  Each invocation writes one or
more CSV tables, and each table is described up front (pair, regime,
sample sizes, bounds), so the checker knows every cell that should exist
before anything runs.  The ``reproduce`` pass is fixed by the paper's
figures; ``sweep-phase`` and ``oracle`` draw their pairs from the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("reproduce", "sweep-phase", "oracle")

# The sample-size ladder of ``htbounds reproduce`` (every 10 up to 500,
# then roughly 10% steps up to 2000).
REPRODUCE_N = tuple(range(10, 501, 10)) + (
    550, 600, 660, 730, 800, 880, 970, 1070, 1180, 1300, 1430, 1570, 1730, 1900, 2000,
)

_REPRODUCE = {
    "fig1": (("fig1", "bernoulli:0.5,0.51"),),
    "fig2": (("fig2", "gaussian:2,0.05"),),
    "appF": (
        ("appF_bernoulli10", "bernoulli:0.5,0.6"),
        ("appF_bernoulli20", "bernoulli:0.5,0.7"),
        ("appF_gaussian10", "gaussian:2,0.1"),
        ("appF_gaussian30", "gaussian:2,0.3"),
    ),
}

# Every bound a sweep can evaluate on a non-Gaussian pair, in column order.
PHASE_BOUNDS = (
    "renyi_converse", "achievability", "phase_converse", "phase_achievability",
    "fano", "hellinger", "berry_esseen",
)

# Rows of a sweep-phase table: n = i * round(1/D) for i = 1..16, so n*D runs
# from about 1 to 16 whatever D the seed draws.  The phase bounds switch
# between converse and achievability where n*D crosses -log(eps_n), so every
# seed splits its rows between the two at about the same place.
SWEEP_ROWS = 16


@dataclass(frozen=True)
class Table:
    """One CSV file an invocation writes, and every cell it must hold."""

    name: str
    pair: str
    regime: str  # constant | linear | exponential
    ns: tuple
    bounds: tuple


@dataclass(frozen=True)
class Invocation:
    """One ``htbounds`` command line; ``{out}`` stands for the output directory."""

    argv: tuple
    tables: tuple


def _family(spec: str) -> str:
    return spec.partition(":")[0]


def _reproduce() -> list[Invocation]:
    calls = []
    for target, pairs in _REPRODUCE.items():
        tables = []
        for tag, spec in pairs:
            bounds = ["renyi_converse", "fano", "hellinger", "berry_esseen"]
            if _family(spec) == "gaussian":
                bounds.append("smoothing_out")
            bounds.append("np_exact")
            for regime in ("constant", "linear", "exponential"):
                tables.append(Table(f"{tag}_{regime}", spec, regime, REPRODUCE_N, tuple(bounds)))
        calls.append(Invocation(("reproduce", target, "--outdir", "{out}"), tuple(tables)))
    return calls


def _sweep(name, spec, regime_args, regime, ns, bounds) -> Invocation:
    step = ns[1] - ns[0] if len(ns) > 1 else 1
    argv = (
        "sweep", "--pair", spec, "--bounds", ",".join(bounds),
        "--n-min", str(ns[0]), "--n-max", str(ns[-1]), "--n-step", str(step),
        *regime_args, "--csv", f"{{out}}/{name}.csv",
    )
    if len(ns) > 1:  # a plot needs two rows
        argv += ("--svg", f"{{out}}/{name}.svg")
    return Invocation(argv, (Table(name, spec, regime, tuple(ns), tuple(bounds)),))


def _kl(p, q) -> float:
    return math.fsum(a * math.log(a / b) for a, b in zip(p, q))


def _solve(f, lo: float, hi: float, target: float) -> float:
    # Bisection for f(x) = target with f increasing on [lo, hi].
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quantize(p: list[float]) -> list[int]:
    # Millionths that sum to exactly 10^6, so the decimal spec sums to 1.
    units = [max(10_000, int(v * 1e6)) for v in p]
    units[units.index(max(units))] += 1_000_000 - sum(units)
    return units


def _spec_discrete(u0, u1) -> str:
    fmt = lambda us: ",".join(f"{u / 1e6:.6f}" for u in us)  # noqa: E731
    return f"discrete:{fmt(u0)}|{fmt(u1)}"


def bernoulli_pair(rng: random.Random, d_lo: float, d_hi: float) -> tuple[str, float]:
    """A Bernoulli pair with D(P1||P0) drawn from [d_lo, d_hi]; returns (spec, D)."""
    target = rng.uniform(d_lo, d_hi)
    p0 = round(rng.uniform(0.25, 0.75), 4)
    up = rng.random() < 0.5
    edge = 0.999 if up else 0.001
    kl = lambda t: _kl((p1 := p0 + t * (edge - p0), 1 - p1), (p0, 1 - p0))  # noqa: E731
    t = _solve(kl, 0.0, 1.0, target)
    p1 = round(p0 + t * (edge - p0), 4)
    return f"bernoulli:{p0},{p1}", _kl((p1, 1 - p1), (p0, 1 - p0))


def discrete_pair(rng: random.Random, k: int, d_lo: float, d_hi: float) -> tuple[str, float]:
    """A K-point pair with D(P1||P0) drawn from [d_lo, d_hi]; returns (spec, D)."""
    target = rng.uniform(d_lo, d_hi)
    g0 = [rng.gammavariate(3.0, 1.0) for _ in range(k)]
    g1 = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    p0 = [v / sum(g0) for v in g0]
    q = [v / sum(g1) for v in g1]
    u0 = _quantize(p0)
    p0 = [u / 1e6 for u in u0]
    mix = lambda t: [(1 - t) * a + t * b for a, b in zip(p0, q)]  # noqa: E731
    t = _solve(lambda t: _kl(mix(t), p0), 0.0, 1.0, min(target, 0.9 * _kl(mix(1.0), p0)))
    u1 = _quantize(mix(t))
    return _spec_discrete(u0, u1), _kl([u / 1e6 for u in u1], p0)


def _sweep_phase(rng: random.Random) -> list[Invocation]:
    bern, d_b = bernoulli_pair(rng, 0.04, 0.08)
    disc, d_d = discrete_pair(rng, rng.choice((3, 4)), 0.04, 0.08)
    calls = []
    for tag, spec, d, bounds in (
        ("bern", bern, d_b, PHASE_BOUNDS + ("np_exact",)),
        # n runs past brute-force reach, so discrete tables carry no oracle
        ("disc", disc, d_d, PHASE_BOUNDS),
    ):
        step = round(1.0 / d)
        ns = tuple(step * i for i in range(1, SWEEP_ROWS + 1))
        calls.append(_sweep(f"{tag}_constant", spec, ("--eps", "0.01"), "constant", ns, bounds))
        calls.append(_sweep(f"{tag}_linear", spec, ("--linear",), "linear", ns, bounds))
    return calls


def _oracle(rng: random.Random) -> list[Invocation]:
    disc3, _ = discrete_pair(rng, 3, 0.02, 0.2)
    disc4, _ = discrete_pair(rng, 4, 0.02, 0.2)
    # D so small that beta at n=20000 stays above 1e-6, far above the oracle
    # rounding floor: the seed-drawn tables fail no cell, so the failures of
    # a pass (all on the fixed pair below) are the same on every seed
    bern, _ = bernoulli_pair(rng, 0.0006, 0.0012)
    mu = round(rng.uniform(-1.0, 1.0), 3)
    delta = round(rng.uniform(0.2, 0.5), 3)
    gauss = f"gaussian:{mu},{delta}"
    const = ("--eps", "0.01")
    dense = tuple(range(20, 20001, 20))
    sparse = tuple(range(1000, 20001, 1000))
    return [
        # brute force at the largest sizes its 1e7-point cap allows
        _sweep("disc3_n14", disc3, const, "constant", (14,), ("renyi_converse", "np_exact")),
        _sweep("disc4_n11", disc4, const, "constant", (11,), ("renyi_converse", "np_exact")),
        # the Bernoulli recursion far below beta = 1e-16; the fixed pair is
        # the one where the linear-space oracle returns negative betas
        _sweep("bern_fixed_dense", "bernoulli:0.5,0.7", const, "constant", dense, ("np_exact",)),
        _sweep("bern_dense", bern, const, "constant", dense, ("np_exact",)),
        _sweep("bern_sparse", bern, const, "constant", sparse, ("renyi_converse", "np_exact")),
        # log eps = -0.7 n crosses -690 at n = 986: both q_inverse_log branches
        _sweep(
            "gauss_exp", gauss, ("--exp-rate", "0.7"), "exponential",
            tuple(range(10, 2001, 10)), ("renyi_converse", "np_exact"),
        ),
    ]


def plan(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` with inputs drawn from ``seed``."""
    if workload == "reproduce":
        return _reproduce()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-phase":
        return _sweep_phase(rng)
    if workload == "oracle":
        return _oracle(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
