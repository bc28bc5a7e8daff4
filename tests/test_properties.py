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
    parse_pair,
    renyi_divergence,
)
from htbounds.experiments import _BOUNDS, CANONICAL_BOUNDS, bounds_for
from htbounds.numerics import (
    DomainError,
    log_q,
    q_inverse,
)
from htbounds.oracle import np_exact_bernoulli, np_exact_discrete
from scanpolish import scan_polish_argmax
from shared import exact_log_beta, exact_sample_size, log_slack, mp_record

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


# The registry's soundness: every bound on beta in `_BOUNDS`, on each family it
# is defined for, against the exact beta, in log, however far it lies below
# 1e-9.  Left out: `np_exact`, the exact value itself, and `fano` and
# `smoothing_out`, which lie above the exact beta on part of their domain
# (README, "Known limits").
_NOT_SOUND_BOUNDS = ("np_exact", "fano", "smoothing_out")
_weights = st.tuples(probs, probs, probs).map(weights3)
# A Bernoulli, K = 3 or Gaussian pair
_pairs = st.one_of(
    distinct_pairs.map(lambda t: BernoulliPair(*t)),
    st.tuples(_weights, _weights).filter(lambda t: max(abs(a - b) for a, b in zip(*t)) > 1e-3)
    .map(lambda t: FiniteDiscretePair(*t)),
    st.floats(min_value=0.01, max_value=3.0).map(lambda d: GaussianPair(0.0, d)),
)
# The exponential rate c = r D(P1||P0): r in [0.1, 2], on both sides of the
# phase bounds' divergence, or in the critical window r = 1 -+ 10^u, u in [-12, -1]
_ratios = st.one_of(
    st.floats(min_value=0.1, max_value=2.0),
    st.builds(lambda sign, u: 1.0 + sign * 10.0**u, st.sampled_from([1.0, -1.0]),
              st.floats(min_value=-12.0, max_value=-1.0)),
)


def _log_eps_at_rate(pair, n, ratio):
    # log eps = -c n at the rate c = ratio D(P1||P0)
    return -ratio * kl_divergence(pair, Direction.REVERSE) * n


@st.composite
def _sound_case(draw):
    # (pair, n, log eps), eps constant or e^{-cn}; a K = 3 pair has at most
    # 11,476 types at n = 150
    pair = draw(_pairs)
    n = draw(st.integers(min_value=1,
                         max_value=150 if isinstance(pair, FiniteDiscretePair) else 500))
    if draw(st.booleans()):
        return pair, n, math.log(draw(st.floats(min_value=1e-6, max_value=0.999)))
    return pair, n, _log_eps_at_rate(pair, n, draw(_ratios))


def _with_examples(cases):
    """Hypothesis ``@example(case=c)`` for each c of ``cases``."""
    return lambda test: reduce(lambda t, case: example(case=case)(t), cases, test)


_BERN = parse_pair("bernoulli:0.5,0.51")
_K3 = parse_pair("discrete:0.5,0.3,0.2|0.2,0.3,0.5")
_GAUSS = parse_pair("gaussian:2,0.05")
_CRITICAL = [parse_pair(s) for s in ("bernoulli:0.3,0.7", "gaussian:0,1",
                                     "discrete:0.2,0.3,0.5|0.5,0.3,0.2")]
_SOUND_EXAMPLES = [
    # fig1's pair at eps = 0.01
    *((_BERN, n, math.log(0.01)) for n in (100, 500, 2000)),
    # a K = 3 pair at eps = 0.01, 1/n and e^{-nD/4}, where beta < 1e-30
    *((_K3, 2000, log_eps) for log_eps in (math.log(0.01), -math.log(2000),
                                           _log_eps_at_rate(_K3, 2000, 0.25))),
    # the phase bounds at c = D/2
    *((_BERN, n, _log_eps_at_rate(_BERN, n, 0.5)) for n in (500, 2000)),
    # fig2's pair at eps = 0.01, the Hellinger and Berry-Esseen cells
    *((_GAUSS, n, math.log(0.01)) for n in (10, 100, 400, 10_000)),
    # c = (1 - 1e-13) D, within rounding of the phase bounds' divergence
    *((pair, 1000, _log_eps_at_rate(pair, 1000, 1.0 - 1e-13)) for pair in _CRITICAL),
]


@settings(max_examples=150, deadline=None)
@_with_examples(_SOUND_EXAMPLES)
@given(case=_sound_case())
def test_registry_bounds_sound(case):
    pair, n, log_eps = case
    log_beta = exact_log_beta(pair, n, log_eps)
    for name in bounds_for(pair):
        if name in _NOT_SOUND_BOUNDS:
            continue
        try:
            r = _BOUNDS[name].evaluate(pair, n, log_eps)
        except DomainError:
            continue  # outside the bound's domain: a phase bound on the other side of D
        if r.kind is BoundKind.LOWER_BETA:
            assert r.log_value <= log_beta + log_slack(log_beta), (name, r, log_beta)
        else:
            assert r.kind is BoundKind.UPPER_BETA, (name, r)
            assert r.log_value >= log_beta - log_slack(log_beta), (name, r, log_beta)


@st.composite
def _size_case(draw):
    # (pair, eps, delta): a Bernoulli pair at least 0.05 apart, or a Gaussian one
    # with d = 10^u, u in [-3, 0.5]; half the time eps, delta < 1/2, Pensia's domain
    pair = draw(st.one_of(
        st.tuples(probs, probs).filter(lambda t: abs(t[0] - t[1]) > 0.05)
        .map(lambda t: BernoulliPair(*t)),
        st.floats(min_value=-3.0, max_value=0.5).map(lambda u: GaussianPair(0.0, 10.0**u))))
    budget = st.floats(min_value=1e-6, max_value=draw(st.sampled_from([0.5, 1.0])),
                       exclude_max=True)
    return pair, draw(budget), draw(budget)


@settings(max_examples=150, deadline=None)
@_with_examples([(parse_pair(spec), eps, delta)
                 for spec in ("bernoulli:0.5,0.6", "bernoulli:0.1,0.35", "bernoulli:0.8,0.6",
                              "gaussian:2,0.05", "gaussian:0,1", "gaussian:-1,1.5,3")
                 for eps, delta in ((0.01, 0.01), (0.1, 1e-4), (1e-4, 0.2), (0.3, 0.3))])
@given(case=_size_case())
def test_sample_size_bounds_sound(case):
    # Neither bound asks for more samples than the exact n*
    pair, eps, delta = case
    n_star = exact_sample_size(pair, eps, delta)
    for bound in (sample_complexity_renyi, sample_complexity_pensia):
        try:
            r = bound(pair, eps, delta)
        except DomainError:
            assert bound is sample_complexity_pensia  # only its domain and premise refuse a cell
            continue
        assert r.value <= n_star * (1.0 + 1e-12), (bound.__name__, r, n_star)


def _mp_threshold_log_beta(pair, n, tau):
    """log beta of the test that rejects H0 when the log-LR L exceeds tau, at 50 digits.

    Over n Bernoulli draws L = S u + (n - S) d, with S the count of ones,
    u = log(P1(1) / P0(1)) and d = log(P1(0) / P0(0)): monotone in S, so
    beta = P1(L <= tau) is the P1 mass of the counts on one side of a cut,
    summed over the pair's float atoms.
    """
    with mpmath.workdps(50):
        record = mp_record(pair, Direction.REVERSE)  # P1's atoms first, z = log(P1 / P0)
        (q0, q1), (d, u) = record.p, record.z
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
    assert r.log_value >= log_beta - log_slack(log_beta), (r, log_beta)


@st.composite
def _near_critical_case(draw):
    # (pair, n, g): n log-uniform in [1, 1e6] and |g| log-uniform in
    # [1e-17, 1e-3], of either sign
    pair = draw(_pairs)
    n = int(10.0 ** draw(st.floats(min_value=0.0, max_value=6.0)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    g = sign * 10.0 ** draw(st.floats(min_value=-17.0, max_value=-3.0))
    return pair, n, g


@settings(max_examples=120, deadline=None)
# tau rounds to within 1e-13 relative of n D(P1||P0): at fig1's pair and n = 2000
# the root's rounded-up log was +3.6e-27, the end l = 1 gives log 0
@_with_examples([(_BERN, 2000, 1e-13), *((pair, 1000, 1e-13) for pair in _CRITICAL)])
@given(case=_near_critical_case())
def test_near_critical_threshold_and_phase_are_valid_and_sound(case):
    # tau = n D(P1||P0) (1 - g) and alpha = 0, where the root's rounding
    # bound can exceed the bound's margin below 0.  The threshold test's
    # Type I error is at most e^{-tau} (Markov's inequality on e^L under P0),
    # so its beta is at least beta_n(e^{-tau}); at g > 0 that is also the
    # beta the phase bound at c = D (1 - g) = tau / n bounds.  Every bound is
    # valid, and at or above the exact beta (a K = 3 pair's up to n = 150).
    pair, n, g = case
    d = kl_divergence(pair, Direction.REVERSE)
    c = d * (1.0 - g)
    tau = n * c
    results = [renyi_achievability_at_threshold(pair, n, tau, -math.inf)]
    if c < d:
        results.append(phase_transition_achievability(pair, n, c))
    assert all(r.valid for r in results), (results, tau)
    if not isinstance(pair, FiniteDiscretePair) or n <= 150:
        log_beta = exact_log_beta(pair, n, -tau)
        for r in results:
            assert r.log_value >= log_beta - log_slack(log_beta), (r, log_beta)


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
_eps_flag = _eps.map(lambda e: f"--eps={e!r}")
_exp_rate_flag = _log_uniform(-300.0, 3.0).map(lambda c: f"--exp-rate={c!r}")
# A sweep's Type I budget is constant, 1/n or e^{-cn}; a bound's is eps, log eps or e^{-cn}
_sweep_budget = st.one_of(_eps_flag, st.just("--linear"), _exp_rate_flag)
_bound_budget = st.one_of(_eps_flag, _log_eps.map(lambda e: f"--log-eps={e!r}"), _exp_rate_flag)


@st.composite
def _cli_argv(draw):
    pair = draw(_cli_pair())
    command = draw(st.sampled_from(["bound", "threshold", "samplesize", "sweep"]))
    if command == "samplesize":
        return ["samplesize", "--pair", pair, f"--eps={draw(_eps)!r}", f"--delta={draw(_eps)!r}"]
    n = draw(st.integers(min_value=1, max_value=10**6))
    if command == "sweep":
        return ["sweep", "--pair", pair, "--n-min", str(n), "--n-max", str(n + 1),
                "--n-step", "1", draw(_sweep_budget)]
    if command == "threshold":  # a log-LR threshold and log alpha, and no budget
        return ["threshold", "--pair", pair, "--n", str(n),
                f"--tau={draw(st.floats(min_value=-1e3, max_value=1e3))!r}",
                f"--log-alpha={draw(st.floats(min_value=-1e4, max_value=0.0))!r}"]
    bound = draw(st.sampled_from(CANONICAL_BOUNDS))
    return ["bound", "--pair", pair, "--bound", bound, "--n", str(n), draw(_bound_budget)]


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
# the 1/n budget
@example(argv=["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", "2", "--n-max", "3",
               "--n-step", "1", "--linear"])
# n = x / D underflows to 0 if the Gaussian crossing is solved by Newton in x = n D
@example(argv=["samplesize", "--pair", "gaussian:0,1e+153", "--eps=0.36787944117144233",
               "--delta=0.6065306597126334"])
# the Bernoulli oracle's rejected P1 mass rounds to 1 or above: beta prints 0, not -9.3e-20
@example(argv=["sweep", "--pair", "bernoulli:0.1,0.9999", "--n-min", "6", "--n-max", "6",
               "--n-step", "1", "--eps=0.36787944117144233"])
# psi at the reverse sample-size root rounds to 0 (D = 1.1e-14): 0 / 0 raised ZeroDivisionError
@example(argv=["samplesize", "--pair", "discrete:1e-14,1e-73,0.99999999999999|1e-17,1e-17,1.0",
               "--eps=0.36787944117144233", "--delta=0.006737946999085467"])
# tau = n (psi + c) / l* of the rate-c achievability bound overflows at n = 360
# (l* = 2.2e-162): the rounding bound was NaN, and so was the printed value
@example(argv=["sweep", "--pair", "gaussian:0,1e+153", "--n-min", "359", "--n-max", "360",
               "--n-step", "1", "--eps=0.36787944117144233"])
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
