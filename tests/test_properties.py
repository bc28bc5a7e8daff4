"""Property-based tests: invariants that must hold on random inputs."""

import contextlib
import io
import json
import math
from functools import reduce

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from htbounds.bounds import (
    BoundKind,
    phase_transition_achievability,
    renyi_achievability_at_threshold,
    sample_complexity_pensia,
    sample_complexity_renyi,
)
from htbounds.cli import cli_main
from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    kl_divergence,
    renyi_divergence,
)
from htbounds.experiments import _BOUNDS, bounds_for
from htbounds.numerics import (
    DomainError,
    log_q,
    q_inverse,
)
from htbounds.oracle import np_exact_bernoulli, np_exact_discrete, np_exact_gaussian
from scanpolish import scan_polish_argmax
from shared import mp_atoms

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


# The registry's soundness: every bound on beta in `_BOUNDS`, on each family it
# is defined for, in the constant and the exponential regime, against the exact
# beta, in log.  Left out: `np_exact`, the exact value itself, and `fano` and
# `smoothing_out`, which lie above the exact beta on part of their domain
# (README, "Known limits").
_NOT_SOUND_BOUNDS = ("np_exact", "fano", "smoothing_out")
_weights = st.tuples(probs, probs, probs).map(weights3)


@st.composite
def _sound_case(draw, family):
    # (pair, the oracle's pair, the oracle, n, log eps); the exponential rate
    # c = r D(P1||P0) lies on both sides of the phase bounds' divergence
    if family == "bernoulli":
        p0, p1 = draw(distinct_pairs)
        pair, exact = BernoulliPair(p0, p1), _two_atoms(p0, p1)
        oracle, n_max = np_exact_discrete, 500
    elif family == "discrete":
        p, q = draw(st.tuples(_weights, _weights).filter(
            lambda t: max(abs(a - b) for a, b in zip(*t)) > 1e-3))
        pair = exact = FiniteDiscretePair(p, q)
        oracle, n_max = np_exact_discrete, 150  # at most 11,476 types
    else:
        pair = exact = GaussianPair(0.0, draw(st.floats(min_value=0.01, max_value=3.0)))
        oracle, n_max = np_exact_gaussian, 500
    n = draw(st.integers(min_value=1, max_value=n_max))
    if draw(st.booleans()):
        log_eps = math.log(draw(st.floats(min_value=1e-6, max_value=0.999)))
    else:
        rate = draw(st.floats(min_value=0.1, max_value=2.0))
        log_eps = -rate * kl_divergence(pair, Direction.REVERSE) * n
    return pair, exact, oracle, n, log_eps


@pytest.mark.parametrize("family", ["bernoulli", "gaussian", "discrete"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_registry_bounds_sound(family, data):
    pair, exact, oracle, n, log_eps = data.draw(_sound_case(family))
    log_beta = oracle(exact, n, log_eps).log_beta
    for name in bounds_for(pair):
        if name in _NOT_SOUND_BOUNDS:
            continue
        try:
            r = _BOUNDS[name].evaluate(pair, n, log_eps)
        except DomainError:
            continue  # outside the bound's domain: a phase bound on the other side of D
        if r.kind is BoundKind.LOWER_BETA:
            assert r.log_value <= log_beta + _log_slack(log_beta), (name, r, log_beta)
        else:
            assert r.kind is BoundKind.UPPER_BETA, (name, r)
            assert r.log_value >= log_beta - _log_slack(log_beta), (name, r, log_beta)


@pytest.mark.parametrize("bound, upper", [(sample_complexity_renyi, 1.0),
                                           (sample_complexity_pensia, 0.5)],
                         ids=["renyi", "pensia"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sample_size_bounds_sound(bound, upper, data):
    # A Gaussian pair's exact sample size: the mean test needs
    # sqrt(n) d >= Q^-1(eps) + Q^-1(delta), with Q^-1(x) = -ndtri(x) from scipy.
    d = 10.0 ** data.draw(st.floats(min_value=-3.0, max_value=0.5))
    eps, delta = (data.draw(st.floats(min_value=1e-6, max_value=upper, exclude_max=True))
                  for _ in range(2))
    z = -(special.ndtri(eps) + special.ndtri(delta))
    n_star = max(math.ceil((z / d) ** 2), 1) if z > 0.0 else 1
    try:
        r = bound(GaussianPair(0.0, d), eps, delta)
    except DomainError:
        assert bound is sample_complexity_pensia  # only its premise refuses a cell
        return
    assert r.value <= n_star * (1.0 + 1e-12), (eps, delta, d, r, n_star)


def _mp_threshold_log_beta(pair, n, tau):
    """log beta of the test that rejects H0 when the log-LR L exceeds tau, at 50 digits.

    Over n Bernoulli draws L = S u + (n - S) d, with S the count of ones,
    u = log(P1(1) / P0(1)) and d = log(P1(0) / P0(0)): monotone in S, so
    beta = P1(L <= tau) is the P1 mass of the counts on one side of a cut,
    summed over the pair's float atoms.
    """
    with mpmath.workdps(50):
        (p0, p1), (q0, q1) = mp_atoms(pair, Direction.FORWARD)  # P0's atoms, then P1's
        u, d = mpmath.log(q1 / p1), mpmath.log(q0 / p0)
        term, beta = q0**n, mpmath.mpf(0)
        for s in range(n + 1):  # term = P1(S = s), by the pmf recurrence
            if s * u + (n - s) * d <= tau:
                beta += term
            term *= (n - s) * q1 / ((s + 1) * q0)
        return float(mpmath.log(beta)) if beta > 0 else -math.inf


@settings(max_examples=40, deadline=None)
# c = (1 - 1e-9) D: tau just below n D, where the order is the root 0.9999999995
@example(ps=(0.5, 0.51), n=2000, ratio=1.0 - 1e-9)
@example(ps=(0.3, 0.7), n=50, ratio=-3.0)  # below -n D(P0||P1): the end l = 0
@example(ps=(0.3, 0.7), n=50, ratio=2.0)  # above n D(P1||P0): the end l = 1
@given(distinct_pairs, st.integers(min_value=1, max_value=300),
       st.floats(min_value=-3.0, max_value=2.0))
def test_threshold_achievability_sound_against_its_own_test(ps, n, ratio):
    # tau = ratio n D(P1||P0) from below 0 to above n D, and alpha = 0: the
    # bound is at or above the exact beta of the test it bounds
    pair = BernoulliPair(*ps)
    tau = ratio * n * kl_divergence(pair, Direction.REVERSE)
    r = renyi_achievability_at_threshold(pair, n, tau, -math.inf)
    log_beta = _mp_threshold_log_beta(pair, n, tau)
    assert r.log_value >= log_beta - _log_slack(log_beta), (r, log_beta)


def _near_critical_reference(pair, n):
    # the exact oracle that reaches (pair, n) and the pair it takes, or None
    if isinstance(pair, GaussianPair):
        return np_exact_gaussian, pair
    if isinstance(pair, BernoulliPair):
        return np_exact_discrete, _two_atoms(pair.p0, pair.p1)
    return (np_exact_discrete, pair) if n <= 150 else None


@st.composite
def _near_critical_case(draw):
    # (pair, n, g): a Bernoulli, K = 3 or Gaussian pair, n log-uniform in
    # [1, 1e6] and |g| log-uniform in [1e-17, 1e-3], of either sign
    family = draw(st.sampled_from(["bernoulli", "discrete", "gaussian"]))
    if family == "bernoulli":
        pair = BernoulliPair(*draw(distinct_pairs))
    elif family == "discrete":
        pair = FiniteDiscretePair(*draw(st.tuples(_weights, _weights).filter(
            lambda t: max(abs(a - b) for a, b in zip(*t)) > 1e-3)))
    else:
        pair = GaussianPair(0.0, draw(st.floats(min_value=0.01, max_value=3.0)))
    n = int(10.0 ** draw(st.floats(min_value=0.0, max_value=6.0)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    g = sign * 10.0 ** draw(st.floats(min_value=-17.0, max_value=-3.0))
    return pair, n, g


@settings(max_examples=120, deadline=None)
# tau rounds to within 1e-13 relative of n D(P1||P0): the root's rounded-up
# log was +3.6e-27, the end l = 1 gives log 0
@example(case=(BernoulliPair(0.5, 0.51), 2000, 1e-13))
@given(case=_near_critical_case())
def test_near_critical_threshold_and_phase_are_valid_and_sound(case):
    # tau = n D(P1||P0) (1 - g) and alpha = 0, where the root's rounding
    # bound can exceed the bound's margin below 0.  The threshold test's
    # Type I error is at most e^{-tau} (Markov's inequality on e^L under P0),
    # so its beta is at least beta_n(e^{-tau}); at g > 0 that is also the
    # beta the phase bound at c = D (1 - g) = tau / n bounds.  Every bound is
    # valid, and at or above the exact beta wherever an oracle reaches.
    pair, n, g = case
    d = kl_divergence(pair, Direction.REVERSE)
    c = d * (1.0 - g)
    tau = n * c
    results = [renyi_achievability_at_threshold(pair, n, tau, -math.inf)]
    if c < d:
        results.append(phase_transition_achievability(pair, n, c))
    assert all(r.valid for r in results), (results, tau)
    reference = _near_critical_reference(pair, n)
    if reference is not None:
        oracle, exact = reference
        log_beta = oracle(exact, n, -tau).log_beta
        for r in results:
            assert r.log_value >= log_beta - _log_slack(log_beta), (r, log_beta)


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
# at the slack's upper end hi (about 9.9e7 here) the Q^{-1} argument is 0 or below
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
# tau = n (psi + c) / l* of the rate-c achievability bound overflows at n = 360
# (l* = 2.2e-162): the rounding bound was NaN, and so was the printed value
@example(argv=["sweep", "--pair", "gaussian:0,1e+153", "--n-min", "359", "--n-max", "360",
               "--n-step", "1", "--eps=0.36787944117144233", f"--bounds={_SWEEP_BOUNDS}"])
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
