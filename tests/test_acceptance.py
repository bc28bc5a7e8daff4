"""Acceptance suite: one test per advertised guarantee of the library.

Each test is self-contained and recomputes its expected values from
first principles (closed forms, exhaustive oracles, dense scans), so a
pass certifies the guarantee rather than agreement with a cached run.
Criterion 3 checks that the classical baselines have decayed below 0.2
at n = 2000, the end of the figure's n ladder, and not earlier: they
decay at the pace of n D, and the slowest of them, Hellinger, has the
closed form 1 - sqrt(1 - e^{-n delta^2 / 4 sigma^2}) - eps, which first
reaches 0.2 near n = 1635 on the figure's pair (Fano is still 0.30 at
n = 400).
"""

import math
import time
from functools import reduce

import numpy as np
import pytest
from scipy.special import ndtri

from htbounds.bounds import (
    Constant,
    Exponential,
    Linear,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    phase_transition_converse,
    renyi_achievability_at_threshold,
    renyi_converse,
    sample_complexity_pensia,
    sample_complexity_renyi,
    smoothing_out_bound,
)
from htbounds.cli import DEFAULT_N
from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    _tilt_atoms,
    kl_divergence,
    parse_pair,
    renyi_divergence,
)
from htbounds.numerics import log_q
from htbounds.oracle import (
    np_exact_bernoulli,
    np_exact_discrete,
    np_exact_gaussian,
)

from scanpolish import renyi_reference, scan_polish_argmax

GAUSS = parse_pair("gaussian:2,0.05")

PAIR_SPECS = (
    "bernoulli:0.5,0.51",
    "bernoulli:0.5,0.6",
    "bernoulli:0.5,0.7",
    "gaussian:2,0.05",
    "gaussian:2,0.1",
    "gaussian:2,0.3",
)


def _log_beta_exact(pair, n, log_eps):
    # log beta_n(eps): a Bernoulli pair's from the K = 2 type oracle, which is
    # exact in log, where the Bernoulli oracle forms beta as 1 - P1(reject)
    if isinstance(pair, GaussianPair):
        return np_exact_gaussian(pair, n, log_eps).log_beta
    two_atoms = FiniteDiscretePair((1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1))
    return np_exact_discrete(two_atoms, n, log_eps).log_beta


def _log_slack(log_beta):
    # rounding of the bound and the oracle, relative to log beta
    return 1.0e-12 * max(1.0, abs(log_beta))


def test_criterion_1_phase_converse_gaussian_closed_form():
    # Above the divergence the converse has a Gaussian closed form:
    # 1 - beta bound = exp(-n (sqrt(c) - sqrt(D))^2), optimized at sqrt(c/D).
    d = kl_divergence(GAUSS, Direction.REVERSE)
    c = 20.0 * d
    exponent = (math.sqrt(c) - math.sqrt(d)) ** 2
    lam_star = math.sqrt(c / d)
    start = time.perf_counter()
    for n in (50, 100, 200, 500):
        r = phase_transition_converse(GAUSS, n, c)
        gap = -math.expm1(r.log_value)  # 1 - bound
        assert gap == pytest.approx(math.exp(-n * exponent), rel=1.0e-6)
        assert r.optimizer == pytest.approx(lam_star, rel=1.0e-3)
    elapsed = time.perf_counter() - start
    assert phase_transition_converse(GAUSS, 200, c).value == pytest.approx(
        0.95090175668401493, rel=1.0e-12, abs=0.0
    )
    assert elapsed < 1.0


def test_criterion_2_converse_sound_against_oracle():
    # The Renyi converse must never exceed the exact Neyman-Pearson beta,
    # across pairs, error regimes and block lengths; and below the
    # divergence the achievability bound must never fall under it.
    ns = range(400, 1501, 100)
    start = time.perf_counter()
    combos = 0
    for spec in PAIR_SPECS:
        pair = parse_pair(spec)
        d_rev = kl_divergence(pair, Direction.REVERSE)
        for regime in (Constant(0.01), Linear(), Exponential(20.0 * d_rev)):
            for n in ns:
                _, log_eps = eps_at(regime, n)
                bound = renyi_converse(pair, n, log_eps)
                log_beta = _log_beta_exact(pair, n, log_eps)
                assert bound.log_value <= log_beta + _log_slack(log_beta), (spec, regime, n)
                combos += 1
    assert combos >= 200
    for spec in PAIR_SPECS:
        pair = parse_pair(spec)
        d_rev = kl_divergence(pair, Direction.REVERSE)
        for frac in (0.5, 0.25):
            c = frac * d_rev
            for n in ns:
                upper = phase_transition_achievability(pair, n, c)
                log_beta = _log_beta_exact(pair, n, -c * n)
                assert upper.log_value >= log_beta - _log_slack(log_beta), (spec, frac, n)
    assert time.perf_counter() - start < 120.0


def test_criterion_3_figure_dominance_and_baseline_decay():
    # Exponential regime comparison on the sweep grid: the Renyi converse
    # must dominate every baseline from some n0 <= 100 onward and sit
    # above 0.99 by n = 400, while the baselines decay below 0.2 within
    # the figure's n range.  They decay at the pace of n D with
    # D = delta^2 / (2 sigma^2) = 0.00125 here, so not by n = 400 (Fano
    # is e^{-0.5} / 2 = 0.303 there).  The slowest is Hellinger: with
    # H^2 = 1 - e^{-delta^2 / 8 sigma^2} it is
    # 1 - sqrt(1 - e^{-n delta^2 / 4 sigma^2}) - eps, which first drops
    # to 0.2 at n = 4 sigma^2 ln(1 / 0.36) / delta^2 = 1635, so the decay
    # is checked at the ladder's last point, n = 2000.  The closed forms,
    # the smoothing bound's e^{-n D} envelope and each baseline's
    # non-increasing tail back that check on every ladder point.
    d = kl_divergence(GAUSS, Direction.REVERSE)
    c = 20.0 * d
    d2 = (GAUSS.delta / GAUSS.sigma) ** 2
    renyi, baselines = [], []
    for n in DEFAULT_N:
        log_eps = -c * n
        renyi.append(renyi_converse(GAUSS, n, log_eps).value)
        results = {
            "fano": fano_bound(GAUSS, n, log_eps),
            "hellinger": hellinger_bound(GAUSS, n, log_eps),
            "berry_esseen": berry_esseen_bound(GAUSS, n, log_eps),
            "smoothing_out": smoothing_out_bound(GAUSS, n, log_eps),
        }
        closed = {
            "fano": math.exp(-n * d2 / 2.0) / (2.0 * -math.expm1(log_eps)),
            "hellinger": 1.0 - math.sqrt(-math.expm1(-n * d2 / 4.0)) - math.exp(log_eps),
        }
        for name, value in closed.items():
            if results[name].valid:
                assert results[name].value == pytest.approx(value, rel=1.0e-12, abs=0.0), (name, n)
        # every term of the smoothing objective after -n D is <= 0
        assert results["smoothing_out"].value <= math.exp(-n * d2 / 2.0), n
        baselines.append({name: r.value for name, r in results.items()})
    dominated = [
        all(renyi[i] >= v - 1.0e-12 for v in baselines[i].values())
        for i in range(len(DEFAULT_N))
    ]
    n0 = next(
        (n for i, n in enumerate(DEFAULT_N) if all(dominated[i:])), None
    )
    assert n0 is not None and n0 <= 100, f"dominance only from n = {n0}"
    at_400 = DEFAULT_N.index(400)
    assert renyi[at_400] >= 0.99
    for name in baselines[0]:
        values = [row[name] for row in baselines]
        tail = values[int(np.argmax(values)):]
        assert all(b <= a for a, b in zip(tail, tail[1:])), f"{name} rises after its peak"
        assert values[-1] <= 0.2, f"{name} still at {values[-1]:.6f} at n = {DEFAULT_N[-1]}"


def test_criterion_4_oracle_cross_validation():
    # The O(n) Bernoulli oracle against the type-class oracle, then the
    # type-class oracle against scaled random feasible tests.
    rng = np.random.default_rng(19)
    start = time.perf_counter()
    for _ in range(100):
        p0, p1 = rng.uniform(0.05, 0.95, size=2)
        while abs(p0 - p1) < 0.01:
            p1 = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 15))
        eps = float(rng.uniform(0.01, 0.99))
        fast = np_exact_bernoulli(BernoulliPair(p0, p1), n, math.log(eps))
        slow = np_exact_discrete(
            FiniteDiscretePair((1.0 - p0, p0), (1.0 - p1, p1)), n, math.log(eps)
        )
        assert abs(fast.beta - slow.beta) <= 1.0e-12, (p0, p1, n, eps)
    for _ in range(20):
        p = rng.random(3) + 0.05
        q = rng.random(3) + 0.05
        p, q = tuple(p / p.sum()), tuple(q / q.sum())
        n = int(rng.integers(1, 6))
        eps = float(rng.uniform(0.02, 0.98))
        oracle = np_exact_discrete(FiniteDiscretePair(p, q), n, math.log(eps))
        m0 = reduce(np.kron, [np.asarray(p)] * n)
        m1 = reduce(np.kron, [np.asarray(q)] * n)
        best = math.inf
        for _ in range(5):
            # rejection probability per outcome, scaled back into the
            # Type I budget when it overshoots
            accept = rng.random((2000, m0.size))
            alpha = accept @ m0
            scale = np.minimum(1.0, eps / np.maximum(alpha, 1.0e-300))
            beta = 1.0 - (accept * scale[:, None]) @ m1
            best = min(best, float(np.min(beta)))
        assert best >= oracle.beta - 1.0e-9, (p, q, n, eps)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_np_gaussian_exponent_convergence():
    # Below the divergence 1 - beta of the exact test decays at rate
    # (sqrt(c) - sqrt(D))^2; the realized log(1 - beta) must sit within
    # 10% of that exponent on a desk-scale n ladder, tightening as n grows.
    pair = GaussianPair(2.0, 0.5)
    d = kl_divergence(pair, Direction.REVERSE)
    c = 2.0 * d
    exponent = (math.sqrt(c) - math.sqrt(d)) ** 2
    ratios = []
    for n in (1000, 3000, 10000):
        r = np_exact_gaussian(pair, n, -c * n)
        xq = (r.threshold - pair.mu) * math.sqrt(n) / pair.sigma
        log_1m_beta = log_q(xq - math.sqrt(n) * pair.delta / pair.sigma)
        ratios.append(log_1m_beta / (-n * exponent))
    for ratio in ratios:
        assert abs(ratio - 1.0) <= 0.1, ratios
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_criterion_6_tensorization_random_products():
    # D_lambda of an n-fold product must equal n times the single-letter
    # value, checked on random 3-symbol pairs via explicit Kronecker powers.
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = rng.random(3) + 0.05
        q = rng.random(3) + 0.05
        p, q = tuple(p / p.sum()), tuple(q / q.sum())
        single = FiniteDiscretePair(p, q)
        for n in (2, 3, 4):
            prod = FiniteDiscretePair(
                tuple(reduce(np.kron, [np.asarray(p)] * n)),
                tuple(reduce(np.kron, [np.asarray(q)] * n)),
            )
            for lam in (0.3, 0.7, 2.0, 5.0):
                for direction in (Direction.FORWARD, Direction.REVERSE):
                    d1 = renyi_divergence(single, lam, direction)
                    dn = renyi_divergence(prod, lam, direction)
                    assert abs(dn - n * d1) <= 1.0e-10, (n, lam, direction)


def test_criterion_7_sample_size_values():
    fixed = sample_complexity_renyi(GAUSS, 0.01, 0.01, lam=2.0)
    assert fixed.valid and fixed.optimizer == 2.0
    assert fixed.value == pytest.approx(1834.0278057124354, rel=1.0e-12)
    assert math.ceil(fixed.value) in (1833, 1834, 1835)
    pensia = sample_complexity_pensia(GAUSS, 0.01, 0.001)
    assert pensia.optimizer == pytest.approx(0.61368959081162535, rel=1.0e-12, abs=0.0)
    assert pensia.value == pytest.approx(4050.6524415401351, rel=1.0e-12)
    assert math.ceil(pensia.value) in (4049, 4050, 4051, 4052, 4053)
    optimized = sample_complexity_renyi(GAUSS, 0.01, 0.01)
    assert optimized.value >= fixed.value - 1.0e-9  # any fixed order is dominated


def _draw_pair(rng, bernoulli):
    if bernoulli:
        p0 = float(rng.uniform(0.1, 0.9))
        p1 = float(rng.uniform(0.1, 0.9))
        while abs(p0 - p1) < 0.05:
            p1 = float(rng.uniform(0.1, 0.9))
        return BernoulliPair(p0, p1)
    return GaussianPair(
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.05, 0.8)),
        float(rng.uniform(0.5, 2.0)),
    )


def test_criterion_8_optimizers_match_dense_scan():
    # Every optimized bound against a 10^4-point scan-and-polish oracle
    # over the same domain, composed from the documented objectives.
    rng = np.random.default_rng(88)
    for i in range(50):
        op = i % 7
        pair = _draw_pair(rng, bernoulli=bool(i % 2))
        n = int(rng.integers(20, 500))
        d_rev = kl_divergence(pair, Direction.REVERSE)
        d_fwd = kl_divergence(pair, Direction.FORWARD)

        if op == 0:
            log_eps = math.log(float(rng.uniform(0.01, 0.6)))
            impl = renyi_converse(pair, n, log_eps).log_value
            neg_g = scan_polish_argmax(
                lambda l: -((l - 1.0) / l)
                * (log_eps + n * renyi_reference(pair, l, Direction.REVERSE)),
                1.0,
                math.inf,
            )[1]
            g_star = -neg_g
            log_1m = math.log1p(-math.exp(log_eps))
            log_two = scan_polish_argmax(
                lambda l: (l / (l - 1.0)) * log_1m
                - n * renyi_reference(pair, l, Direction.FORWARD),
                1.0,
                math.inf,
            )[1]
            oracle = log_two
            if g_star < 0.0:
                oracle = max(oracle, math.log1p(-math.exp(g_star)))
        elif op == 1:
            c = float(rng.uniform(1.5, 30.0)) * d_rev
            impl = phase_transition_converse(pair, n, c).log_value
            neg_g = scan_polish_argmax(
                lambda l: ((l - 1.0) / l)
                * (c * n - n * renyi_reference(pair, l, Direction.REVERSE)),
                1.0,
                math.inf,
            )[1]
            assert -neg_g < 0.0
            oracle = math.log1p(-math.exp(-neg_g))
        elif op == 2:
            c = float(rng.uniform(0.1, 0.9)) * d_rev
            impl = phase_transition_achievability(pair, n, c).log_value
            exponent = scan_polish_argmax(
                lambda l: ((1.0 - l) / l)
                * n
                * (renyi_reference(pair, l, Direction.REVERSE) - c),
                1.0e-10,
                1.0 - 1.0e-12,
            )[1]
            oracle = -exponent
        elif op == 3:
            tau = float(rng.uniform(0.05, 0.8)) * n * d_rev
            impl = renyi_achievability_at_threshold(pair, n, tau, -math.inf).log_value
            neg = scan_polish_argmax(
                lambda l: -(
                    (l - 1.0) * (n * renyi_reference(pair, l, Direction.REVERSE) - tau)
                ),
                1.0e-10,
                1.0 - 1.0e-12,
            )[1]
            oracle = -neg
        elif op == 4:
            eps = float(rng.uniform(0.005, 0.4))
            delta = float(rng.uniform(0.005, 0.4))
            result = sample_complexity_renyi(pair, eps, delta)

            def objective(l):
                ratio = l / (l - 1.0)
                first = (-math.log(delta) + ratio * math.log1p(-eps)) / renyi_reference(
                    pair, l, Direction.FORWARD
                )
                second = (-math.log(eps) + ratio * math.log1p(-delta)) / renyi_reference(
                    pair, l, Direction.REVERSE
                )
                return np.maximum(first, second)

            oracle_n = scan_polish_argmax(objective, 1.0, math.inf)[1]
            if isinstance(pair, BernoulliPair):
                # The scan stops at l = 1 + 1e6; the bound's supremum can be
                # its l -> inf limit, with D_inf = log max p/q.
                p, q = (1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1)
                d_inf_fwd = max(math.log(a / b) for a, b in zip(p, q))
                d_inf_rev = max(math.log(b / a) for a, b in zip(p, q))
                oracle_n = max(oracle_n,
                               (-math.log(delta) + math.log1p(-eps)) / d_inf_fwd,
                               (-math.log(eps) + math.log1p(-delta)) / d_inf_rev)
            if result.valid:
                assert abs(result.value - oracle_n) <= 1.0e-9 * max(1.0, oracle_n), (i,)
            else:
                assert oracle_n < 1.0 + 1.0e-6
            continue
        elif op == 5:
            n = int(rng.integers(1500, 4000))
            log_eps = math.log(float(rng.uniform(0.05, 0.3)))
            impl = berry_esseen_bound(pair, n, log_eps).log_value
            m = _tilt_atoms(pair, Direction.FORWARD)  # the LLR's kl, var and berry
            one_m_eps = -math.expm1(log_eps)
            sqrt_n = math.sqrt(n)
            hi = sqrt_n * one_m_eps - m.berry
            assert hi > 0.0
            scale = math.sqrt(n * m.var)
            shift = -n * m.kl - 0.5 * math.log(n)

            def objective(dl):
                arg = one_m_eps - (m.berry + dl) / sqrt_n
                # Q^{-1}(p) = -ndtri(p), vectorized over the scan
                out = shift + scale * ndtri(np.clip(arg, 1.0e-300, None)) + np.log(dl)
                return np.where(arg > 0.0, out, -np.inf)

            oracle = scan_polish_argmax(objective, 0.0, hi)[1]
        else:
            pair = _draw_pair(rng, bernoulli=False)
            n = int(rng.integers(100, 3000))
            log_eps = math.log(float(rng.uniform(0.01, 0.5)))
            impl = smoothing_out_bound(pair, n, log_eps).log_value
            d2 = (pair.delta / pair.sigma) ** 2
            log_1m = math.log1p(-math.exp(log_eps))

            def objective(t):
                smoothed = log_1m / (-np.expm1(-2.0 * t))
                return (
                    -n * d2 / 2.0
                    + smoothed
                    - n * t
                    - (d2 / 2.0) * np.expm1(t) ** 2
                    - n * (np.cosh(2.0 * t) - 1.0)
                )

            oracle = scan_polish_argmax(objective, 0.0, 10.0)[1]
        assert abs(impl - oracle) <= 1.0e-9, (i, op, impl, oracle)


def test_criterion_9_reproduce_is_deterministic(tmp_path):
    # Reproduction output must be byte-identical from run to run: rows are
    # evaluated serially, in n order, so running twice gives the same files.
    from htbounds.cli import cli_main

    outputs = {}
    for run in range(2):
        for target in ("fig1", "fig2"):
            outdir = tmp_path / f"{target}_{run}"
            assert cli_main(["reproduce", target, "--outdir", str(outdir)]) == 0
            for path in sorted(outdir.iterdir()):
                data = path.read_bytes()
                key = (target, path.name)
                if key in outputs:
                    assert outputs[key] == data, f"{key} differs between runs"
                else:
                    outputs[key] = data
    assert len(outputs) >= 8
