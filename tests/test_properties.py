"""Property-based tests: invariants that must hold on random inputs."""

import contextlib
import io
import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from htbounds.bounds import (
    phase_transition_achievability,
    renyi_converse,
)
from htbounds.cli import cli_main
from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    kl_divergence,
    renyi_divergence,
)
from htbounds.numerics import (
    log_q,
    q_inverse,
)
from htbounds.oracle import np_exact_bernoulli, np_exact_discrete
from scanpolish import scan_polish_argmax

probs = st.floats(min_value=0.05, max_value=0.95)
distinct_pairs = st.tuples(probs, probs).filter(lambda t: abs(t[0] - t[1]) > 1e-3)
lambdas = st.floats(min_value=0.05, max_value=20.0).filter(lambda x: abs(x - 1.0) > 1e-3)


def weights3(draw_floats):
    # three positive weights, normalized exactly enough for the constructor
    raw = [max(f, 0.05) for f in draw_floats]
    total = math.fsum(raw)
    vec = [r / total for r in raw]
    vec[-1] = 1.0 - math.fsum(vec[:-1])
    return tuple(vec)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_q_symmetry(x):
    assert math.exp(log_q(x)) + math.exp(log_q(-x)) == pytest.approx(1.0, abs=1e-13)


@given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=1e-6, max_value=5.0))
def test_q_monotone_decreasing(x, step):
    assert log_q(x) >= log_q(x + step)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_q_inverse_roundtrip(p):
    assert special.ndtr(-q_inverse(p)) == pytest.approx(p, rel=1e-10, abs=1e-14)


@settings(max_examples=50)
@given(
    st.floats(min_value=0.5, max_value=9.5),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_scan_polish_argmax_beats_random_probes(center, width, seed):
    def f(x):
        return -width * (x - center) ** 2

    val = scan_polish_argmax(f, 0.0, 10.0)[1]
    rng = np.random.default_rng(seed)
    probes = rng.uniform(1e-9, 10.0 - 1e-9, size=100)
    assert val >= float(np.max(f(probes))) - 1e-9


@given(distinct_pairs, lambdas, lambdas)
def test_renyi_monotone_in_lambda(ps, la, lb):
    pair = BernoulliPair(*ps)
    lo, hi = min(la, lb), max(la, lb)
    d_lo = renyi_divergence(pair, lo, Direction.FORWARD)
    d_hi = renyi_divergence(pair, hi, Direction.FORWARD)
    assert d_lo <= d_hi + 1e-12
    assert d_lo >= -1e-15  # non-negativity


@given(distinct_pairs)
def test_renyi_brackets_kl_at_one(ps):
    pair = BernoulliPair(*ps)
    # evaluating D_lambda at 1 +/- h amplifies rounding by 1/h, so keep h
    # large enough that the sandwich cushion dominates the noise
    h = 1e-5
    kl = kl_divergence(pair, Direction.FORWARD)
    below = renyi_divergence(pair, 1.0 - h, Direction.FORWARD)
    above = renyi_divergence(pair, 1.0 + h, Direction.FORWARD)
    assert below <= kl + 1e-10 <= above + 2e-10
    assert above - below <= 100.0 * h


@settings(max_examples=30)
@given(
    st.tuples(probs, probs, probs).map(weights3),
    st.tuples(probs, probs, probs).map(weights3),
    st.sampled_from([0.3, 0.7, 2.0, 5.0]),
)
def test_tensorization_two_fold(p, q, lam):
    single = FiniteDiscretePair(p, q)
    prod = FiniteDiscretePair(tuple(np.kron(p, p)), tuple(np.kron(q, q)))
    d1 = renyi_divergence(single, lam, Direction.FORWARD)
    d2 = renyi_divergence(prod, lam, Direction.FORWARD)
    assert d2 == pytest.approx(2.0 * d1, abs=1e-10)


def _two_atoms(p0, p1):
    # Bernoulli(p0) vs Bernoulli(p1) for the K = 2 type oracle, which is exact
    # in log, where the Bernoulli oracle forms beta as 1 - P1(reject)
    return FiniteDiscretePair((1.0 - p0, p0), (1.0 - p1, p1))


def _log_slack(log_beta):
    # rounding of the bound and the oracle, relative to log beta: the soundness
    # checks below hold at every beta, however far it lies below 1e-9
    return 1e-12 * max(1.0, abs(log_beta))


@settings(max_examples=40, deadline=None)
@given(
    distinct_pairs,
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_renyi_converse_sound_on_random_instances(ps, n, eps):
    log_eps = math.log(eps)
    bound = renyi_converse(BernoulliPair(*ps), n, log_eps)
    log_beta = np_exact_discrete(_two_atoms(*ps), n, log_eps).log_beta
    assert bound.log_value <= log_beta + _log_slack(log_beta)


@settings(max_examples=30, deadline=None)
@given(
    distinct_pairs,
    st.integers(min_value=50, max_value=500),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_phase_achievability_sound_on_random_instances(ps, n, frac):
    pair = BernoulliPair(*ps)
    c = frac * kl_divergence(pair, Direction.REVERSE)
    bound = phase_transition_achievability(pair, n, c)
    log_beta = np_exact_discrete(_two_atoms(*ps), n, -c * n).log_beta
    assert log_beta <= bound.log_value + _log_slack(log_beta)


@settings(max_examples=30, deadline=None)
@given(
    distinct_pairs,
    st.integers(min_value=1, max_value=80),
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.4),
)
def test_np_beta_monotone_in_eps_and_n(ps, n, eps, bump):
    pair = BernoulliPair(*ps)
    b_small = np_exact_bernoulli(pair, n, math.log(eps)).beta
    b_large = np_exact_bernoulli(pair, n, math.log(eps + bump)).beta
    assert b_large <= b_small + 1e-13
    b_next = np_exact_bernoulli(pair, n + 1, math.log(eps)).beta
    assert b_next <= b_small + 1e-13


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(probs, probs, probs).map(weights3),
    st.tuples(probs, probs, probs).map(weights3),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.02, max_value=0.98),
    st.integers(min_value=0, max_value=10**6),
)
def test_bruteforce_beats_random_feasible_tests(p, q, n, eps, seed):
    pair = FiniteDiscretePair(p, q)
    oracle = np_exact_discrete(pair, n, math.log(eps))
    m0 = reduce(np.kron, [np.asarray(p)] * n)
    m1 = reduce(np.kron, [np.asarray(q)] * n)
    rng = np.random.default_rng(seed)
    accept = rng.random((200, m0.size))  # rejection probability per outcome
    alpha = accept @ m0
    scale = np.minimum(1.0, eps / np.maximum(alpha, 1e-300))
    beta = 1.0 - (accept * scale[:, None]) @ m1
    assert float(np.min(beta)) >= oracle.beta - 1e-9


# The float-range contract of the command line: across the float range every
# call answers with probabilities in [0, 1] (sample sizes >= 0 or inf) or
# exits 2 with one `error:` line, and never raises.
def _log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda u: 10.0**u)


# Bernoulli parameters in [1e-300, 1 - 2^-53]: near 0, or near 1 no closer than 2^-53.
_bern_p = st.one_of(
    _log_uniform(-300.0, 0.0).filter(lambda p: p < 1.0),
    _log_uniform(-15.95, -0.31).map(lambda t: 1.0 - t),
)


@st.composite
def _k3_vector(draw):
    a, b = draw(_log_uniform(-300.0, -0.5)), draw(_log_uniform(-300.0, -0.5))
    return (a, b, 1.0 - (a + b))


@st.composite
def _cli_pair(draw):
    family = draw(st.sampled_from(["gaussian", "bernoulli", "discrete"]))
    if family == "gaussian":
        d = draw(_log_uniform(-160.0, 154.0)) * draw(st.sampled_from([1.0, -1.0]))
        return f"gaussian:0,{d!r}"
    if family == "bernoulli":
        return f"bernoulli:{draw(_bern_p)!r},{draw(_bern_p)!r}"
    p, q = draw(_k3_vector()), draw(_k3_vector())
    return "discrete:" + ",".join(map(repr, p)) + "|" + ",".join(map(repr, q))


_LOG_EPS_MAX = math.log(1.0 - 1e-12)
_log_eps = st.one_of(st.floats(min_value=-1e4, max_value=-1.0),
                     st.floats(min_value=-1.0, max_value=_LOG_EPS_MAX))
# eps itself, for the commands that take it as a number: log eps >= -700 keeps it above 0
_eps = st.one_of(st.floats(min_value=-700.0, max_value=-1.0),
                 st.floats(min_value=-1.0, max_value=_LOG_EPS_MAX)).map(math.exp)
# Every sweep column defined for all three families
_SWEEP_BOUNDS = ("renyi_converse,achievability,phase_converse,phase_achievability,"
                 "fano,hellinger,berry_esseen,np_exact")
_BOUND_FLAGS = {
    "renyi_converse": {}, "fano": {}, "hellinger": {}, "berry_esseen": {}, "smoothing_out": {},
    "achievability": {"--tau": st.floats(min_value=-1e3, max_value=1e3),
                      "--log-alpha": st.floats(min_value=-1e4, max_value=0.0)},
    "phase_converse": {"--c": _log_uniform(-300.0, 3.0)},
    "phase_achievability": {"--c": _log_uniform(-300.0, 3.0)},
}


@st.composite
def _cli_argv(draw):
    pair = draw(_cli_pair())
    command = draw(st.sampled_from(["bound", "samplesize", "sweep"]))
    if command == "samplesize":
        return ["samplesize", "--pair", pair, f"--eps={draw(_eps)!r}", f"--delta={draw(_eps)!r}"]
    n = draw(st.integers(min_value=1, max_value=10**6))
    if command == "sweep":
        return ["sweep", "--pair", pair, "--n-min", str(n), "--n-max", str(n + 1),
                "--n-step", "1", f"--eps={draw(_eps)!r}", f"--bounds={_SWEEP_BOUNDS}"]
    bound = draw(st.sampled_from(sorted(_BOUND_FLAGS)))
    argv = ["bound", "--pair", pair, "--bound", bound, "--n", str(n),
            f"--log-eps={draw(_log_eps)!r}"]
    argv += [f"{flag}={draw(values)!r}" for flag, values in _BOUND_FLAGS[bound].items()]
    return argv


# Python's own messages, which name no domain
_BARE_MESSAGES = ("math domain error", "math range error", "division by zero")


def _printed_values(command, out):
    # the probabilities (bound, sweep) or sample sizes (samplesize) printed
    lines = out.splitlines()
    if command == "sweep":
        # "n=N eps=E  (log L)", then "  bound: V  (log L)" or "  bound: -" per bound
        fields = [line.split(": ")[1] for line in lines[1:]]
        return [float(v.split()[0]) for v in [lines[0].split("eps=")[1], *fields] if v != "-"]
    return [float(json.loads(line)["value"]) for line in lines if line.startswith("{")]


@settings(max_examples=60, deadline=None)
@example(argv=["bound", "--pair", "bernoulli:1e-300,0.5", "--bound", "berry_esseen", "--n", "10"])
@example(argv=["bound", "--pair", "bernoulli:0.5,1e-300", "--bound", "berry_esseen", "--n", "10"])
@example(argv=["bound", "--pair", "discrete:1e-300,1|1e-200,1", "--bound", "berry_esseen",
               "--n", "10"])
# the slack's upper end hi - 1e-9 rounds to hi, where the Q^{-1} argument is 0 or below
@example(argv=["bound", "--pair", "bernoulli:0.5,0.6", "--bound", "berry_esseen",
               "--n", "10000000000000000", "--eps", "0.01"])
# n above the float range: n * D would raise OverflowError
@example(argv=["bound", "--pair", "bernoulli:0.5,0.6", "--bound", "fano", "--n", str(10**400)])
@example(argv=["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", str(10**400),
               "--n-max", str(10**400)])
# n = x / D underflows to 0 if the Gaussian crossing is solved by Newton in x = n D
@example(argv=["samplesize", "--pair", "gaussian:0,1e+153", "--eps=0.36787944117144233",
               "--delta=0.6065306597126334"])
# the Bernoulli oracle's rejected P1 mass rounds to 1 or above: beta prints 0, not -9.3e-20
@example(argv=["sweep", "--pair", "bernoulli:0.1,0.9999", "--n-min", "6", "--n-max", "6",
               "--n-step", "1", "--eps=0.36787944117144233", f"--bounds={_SWEEP_BOUNDS}"])
# psi at the reverse sample-size root rounds to 0 (D = 1.1e-14): 0 / 0 raised ZeroDivisionError
@example(argv=["samplesize", "--pair", "discrete:1e-14,1e-73,0.99999999999999|1e-17,1e-17,1.0",
               "--eps=0.36787944117144233", "--delta=0.006737946999085467"])
@given(argv=_cli_argv())
def test_cli_answers_or_exits_two_across_the_float_range(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) > 7, lines
        assert not any(bare in lines[0] for bare in _BARE_MESSAGES), lines
        return
    assert code == 0, (code, err.getvalue())
    values = _printed_values(argv[0], out.getvalue())
    assert values
    for v in values:
        assert (v >= 0.0) if argv[0] == "samplesize" else (0.0 <= v <= 1.0), (v, out.getvalue())
