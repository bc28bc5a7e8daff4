"""Tests for the converse, achievability, and sample-size bounds.

Every pinned number was computed independently with mpmath at 60 digits
(optimizing over lambda by high-precision golden section where the bound
is an extremum) and frozen at 17 significant figures.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import htbounds.bounds
from htbounds.cli import DEFAULT_N
from htbounds.bounds import (
    BoundKind,
    BoundResult,
    Constant,
    Exponential,
    Linear,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    renyi_achievability_at_threshold,
    renyi_converse,
    sample_complexity_pensia,
    sample_complexity_renyi,
    smoothing_out_bound,
)
from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    _tilt,
    _tilt_atoms,
    kl_divergence,
    parse_pair,
)
from htbounds.numerics import DomainError

from scanpolish import renyi_reference, scan_polish_argmax
from shared import PHASE_LAMBDA, exact_sample_size, mp_record, mp_tilt

BERN = BernoulliPair(0.5, 0.51)
GAUSS = GaussianPair(2.0, 0.05, 1.0)
D_GAUSS = 0.00125  # = KL in both directions

# renyi_converse(GAUSS, 200, -0.025 * 200), branch one; optimizer PHASE_LAMBDA
PHASE_CONV_200 = 0.95090175668401493
# fano_bound(GAUSS, 1000, log 0.01)
FANO_1000 = 0.14469939235363136
# hellinger_bound(GAUSS, 50, log 0.01)
HELL_BOUND_50 = 0.81459542331040527
# sample_complexity_renyi(GAUSS, 0.01, 0.01, lam=2)
COR1_VALUE = 1834.0278057124354
# sample_complexity_pensia(GAUSS, 0.01, 0.001)
PENSIA_VALUE = 4050.6524415401351
PENSIA_LAMBDA = 0.61368959081162535
# the smoothing objective at GAUSS, n = 1000, log 0.01, t = 0.001
SMOOTH_TOTAL = -7.2821947716512527


class TestBoundResult:
    def test_fields_are_log_optimizer_and_kind(self):
        assert [f.name for f in dataclasses.fields(BoundResult)] == ["log_value", "optimizer", "kind"]

    @pytest.mark.parametrize("kind", [BoundKind.LOWER_BETA, BoundKind.UPPER_BETA,
                                      BoundKind.EXACT_BETA])
    def test_probability_is_valid_in_minus_inf_to_zero(self, kind):
        # (log, value, valid): a log of exactly 0 is valid and -inf is not
        for log_value, value, valid in ((-math.inf, 0.0, False), (-800.0, 0.0, True),
                                        (-1.0, math.exp(-1.0), True), (0.0, 1.0, True),
                                        (1e-14, 1.0, False), (math.inf, 1.0, False)):
            r = BoundResult(log_value, None, kind)
            assert (r.value, r.valid) == (value, valid), log_value

    def test_sample_size_is_valid_from_zero_and_floored_at_one(self):
        for log_value, value, valid in ((-math.inf, 1.0, False), (-5.0, 1.0, False),
                                        (0.0, 1.0, True), (2.0, math.exp(2.0), True),
                                        (math.inf, math.inf, True)):
            r = BoundResult(log_value, None, BoundKind.LOWER_N)
            assert (r.value, r.valid) == (value, valid), log_value


class TestRegimes:
    def test_constant(self):
        eps, log_eps = eps_at(Constant(0.01), 7)
        assert eps == 0.01
        assert log_eps == pytest.approx(math.log(0.01), rel=1e-15, abs=0.0)

    def test_linear(self):
        eps, log_eps = eps_at(Linear(), 4)
        assert eps == 0.25
        assert log_eps == pytest.approx(-math.log(4.0), rel=1e-15, abs=0.0)
        with pytest.raises(DomainError):
            eps_at(Linear(), 1)

    def test_exponential_keeps_log_through_underflow(self):
        eps, log_eps = eps_at(Exponential(2.0), 1000)
        assert eps == 0.0  # underflowed
        assert log_eps == -2000.0

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                Constant(bad)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                Exponential(bad)
        with pytest.raises(DomainError, match="unknown regime"):
            eps_at(0.01, 5)


class TestRenyiConverse:
    def test_supercritical_equals_phase_converse(self):
        r = renyi_converse(GAUSS, 200, -0.025 * 200)
        assert r.value == pytest.approx(PHASE_CONV_200, rel=1e-12, abs=0.0)
        assert r.optimizer == pytest.approx(PHASE_LAMBDA, rel=1e-3, abs=0.0)
        assert r.kind is BoundKind.LOWER_BETA
        assert r.valid

    def test_eps_saturating_to_one_degenerates(self):
        # eps rounds to 1, but log(1 - eps) = log(-expm1(log_eps)) stays
        # exact, so branch two keeps its l = inf limit log(1 - eps) -
        # n D_inf(P0||P1).  At log_eps = -1e-300 the bound is 1.3e-301; at
        # -5e-324 its value underflows to 0, while its log is still exact,
        # so it stays valid.
        for log_eps, value in ((-1e-300, 1.3e-301), (-5e-324, 0.0)):
            r = renyi_converse(BERN, 100, log_eps)
            with mpmath.workdps(60):
                want = (mpmath.log(-mpmath.expm1(mpmath.mpf(log_eps)))
                        - 100 * mp_record(BERN, Direction.FORWARD).d_inf)
            assert r.optimizer == math.inf
            assert r.log_value == pytest.approx(float(want), rel=1e-13, abs=0.0)
            assert r.valid
            assert r.value == math.exp(r.log_value) == pytest.approx(value, rel=0.1, abs=0.0)


class TestPhaseTransitionConverse:
    # The strong converse above the phase transition: renyi_converse at
    # eps = e^{-nc}, c > D(P1||P0), and the sweep's branch-one cell
    def test_tends_to_one(self):
        values = [renyi_converse(GAUSS, n, -0.025 * n).value for n in (100, 400, 1600)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.9999

    def test_subcritical_rate_rejected(self):
        # the sweep's phase_converse cell is empty at and below the divergence
        # (c = D/2 at n = 100, c = D at n = 1), and refuses a budget outside
        # the log eps domain
        d = kl_divergence(GAUSS, Direction.REVERSE)
        for n, log_eps in ((100, -50.0 * d), (1, -d)):
            with pytest.raises(DomainError, match="phase_converse requires log_eps / n < "):
                htbounds.bounds._phase_converse(GAUSS, n, log_eps)
        with pytest.raises(DomainError, match="log_eps must be finite and < 0"):
            htbounds.bounds._phase_converse(GAUSS, 100, 1.0)


class TestPhaseTransitionAchievability:
    def test_reference_value(self):
        # Gaussian closed form: D_l(P1||P0) = l D, so the exponent
        # ((1-l)/l) n (l D - c) peaks at l = sqrt(c/D) with value
        # n (sqrt(D) - sqrt(c))^2.
        for pair in (GAUSS, GaussianPair(0.0, 1.3, 2.0)):
            d = kl_divergence(pair, Direction.REVERSE)
            for ratio in (1e-4, 0.01, 0.25, 0.81, 0.99):
                for n in (100, 10000):
                    r = phase_transition_achievability(pair, n, -ratio * d * n)
                    case = (pair, ratio, n)
                    want = -n * (math.sqrt(d) - math.sqrt(ratio * d)) ** 2
                    assert r.log_value == pytest.approx(want, rel=1e-12, abs=0.0), case
                    assert r.optimizer == pytest.approx(math.sqrt(ratio), rel=1e-6, abs=0.0), case
                    assert r.kind is BoundKind.UPPER_BETA
                    assert r.valid

    def test_rate_within_rounding_of_d_takes_the_order_one_end(self):
        # log eps = -(1 - 1e-13) n D: the root's log, rounded up, is +3.6e-27,
        # so the bound is the end l = 1, log 0, the threshold bound's at alpha = 0
        r = phase_transition_achievability(BERN, 2000, -0.40002667093421035)
        assert (r.log_value, r.optimizer, r.valid) == (0.0, 1.0, True)

    def test_rounding_bound_counts_the_error_tau_carries(self):
        # tau = n (psi(l*) + c) / l* carries the error of psi(l*), which
        # reaches the log as n / l* times it; without it, this cell's bound
        # fell 1.0e-13 relative below its own expression at 50 digits
        pair = BernoulliPair(0.4862020687965917, 0.5035238062336335)
        n, log_eps = 66, -0.00019905456066066635 * 66
        r = phase_transition_achievability(pair, n, log_eps)
        with mpmath.workdps(50):
            lam = mpmath.mpf(r.optimizer)
            want = (n * mp_tilt(mp_record(pair, Direction.REVERSE), lam - 1).psi
                    + (lam - 1) * mpmath.mpf(log_eps)) / lam
            assert r.log_value >= want
        assert r.log_value == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_supercritical_rate_rejected(self, monkeypatch):
        # the window is -D < log eps / n < 0: at and past -D the converse
        # states the other side, and a log eps / n that rounds to -0.0
        # (log eps = -5e-324 at n = 2) is refused before any root is solved
        d = kl_divergence(GAUSS, Direction.REVERSE)
        assert phase_transition_achievability(GAUSS, 100, -(1.0 - 1e-9) * 100 * d).valid
        for log_eps in (-100 * d, -200 * d):
            with pytest.raises(DomainError, match="above the divergence use renyi_converse"):
                phase_transition_achievability(GAUSS, 100, log_eps)

        def no_root(atoms, s, target, lo, hi, ds=0.0):
            raise AssertionError(f"_tilt_root reached with target {target!r}")

        monkeypatch.setattr(htbounds.bounds, "_tilt_root", no_root)
        with pytest.raises(DomainError, match="log_eps / n < 0"):
            phase_transition_achievability(GAUSS, 2, -5e-324)


def _mp_golden(f, lo, hi, steps=100):
    # Golden-section maximum of a unimodal f on [lo, hi]: the bracket
    # shrinks by 0.618^100 ~ 1e-21, and the value at a smooth maximum
    # misses by the square of that.
    invphi = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd)


def _mp_renyi_converse(pair, n, log_eps):
    """log of the two-branch bound by golden section at 120 digits.

    Branch one runs over u = 1/l in (0, 1), branch two over v = log(l - 1)
    in (-250, 60), which resolves the optimum of branch two however close
    to 1 a tiny eps puts it.  Both objectives are unimodal in these
    variables, and the ends u -> 0 and v -> 60 reach the l = inf endpoint,
    so the reference finds it without being told.
    """
    with mpmath.workdps(120):
        le = mpmath.mpf(log_eps)
        rev, fwd = mp_record(pair, Direction.REVERSE), mp_record(pair, Direction.FORWARD)
        # branch one: g(u) = (1 - u) log eps + n u psi_R(1/u), minimized
        g = -_mp_golden(lambda u: -((1 - u) * le + n * u * mp_tilt(rev, 1 / u - 1).psi), 0, 1)
        # branch two: ((1 + h) log(1-eps) - n psi_F(1 + h)) / h, h = e^v, maximized
        log_1m = mpmath.log(-mpmath.expm1(le))

        def two_at(v):
            h = mpmath.exp(v)
            return ((1 + h) * log_1m - n * mp_tilt(fwd, h).psi) / h

        two = _mp_golden(two_at, -250, 60)
        one = mpmath.log1p(-mpmath.exp(g)) if g < 0 else -mpmath.inf
        return float(max(one, two))


def _budgets(pair, n):
    # log eps at eps = 0.3, eps = 0.01, eps = 1/n and eps = e^{-20 D(P1||P0) n}
    d = kl_divergence(pair, Direction.REVERSE)
    return (math.log(0.3), math.log(0.01), -math.log(n), -20.0 * d * n)


# _mp_renyi_converse(pair, n, log_eps) for each budget of _budgets(pair, n), in order.
MP_RENYI_CONVERSE = {
    ("bernoulli:0.5,0.51", 10):
        (-0.39989666907543936, -0.011962234232733055, -0.12067921078321692, -3.3922917479631565),
    ("bernoulli:0.5,0.51", 400):
        (-0.7236838963951373, -0.031501865934115414, -0.009228127254781943, -0.47966028636385283),
    ("bernoulli:0.5,0.51", 2000):
        (-1.5122668473172893, -0.10660269267070054, -0.010999477278394842, -0.008061400168294292),
    ("bernoulli:0.5,0.7", 10):
        (-2.3531699819967375, -0.1874757143585667, -1.0777502251778757, -2.061962613293992e-06),
    ("bernoulli:0.5,0.7", 400):
        (-42.382570019557654, -36.08199484660718, -35.472684960891435, -3.725748647055289e-228),
    ("bernoulli:0.5,0.7", 2000):
        (-190.7115180777733, -177.04956133354656, -174.9530922191586, -0.0),
    ("bernoulli:0.1,0.35", 10):
        (-3.1266382338273067, -1.2497481296240178, -2.4214099238015776, -5.3543554991560085e-15),
    ("bernoulli:0.1,0.35", 400):
        (-75.24306035453206, -68.38985451959581, -67.71297996860973, -0.0),
    ("bernoulli:0.1,0.35", 2000):
        (-353.2963335507784, -338.2154652520513, -335.8776677343424, -0.0),
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 10):
        (-4.95840763865539, -1.469151403717369, -3.8770576136356643, -1.26765060022823e-20),
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 400):
        (-122.34954244726882, -111.99278289064749, -110.9697537981932, -0.0),
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 2000):
        (-577.112335600934, -554.320616943476, -550.7870728383488, -0.0),
    ("discrete:0.7,0.2,0.1|0.1,0.3,0.6", 10):
        (-14.747291198934544, -11.623502341737318, -13.010063932530743, -5.4934821126173415e-80),
    ("discrete:0.7,0.2,0.1|0.1,0.3,0.6", 400):
        (-463.52453373369593, -444.5463780109414, -442.64198964120754, -0.0),
    ("discrete:0.7,0.2,0.1|0.1,0.3,0.6", 2000):
        (-2254.4537320575523, -2212.2251912411734, -2205.6290601509363, -0.0),
}


class TestRenyiOrderRoot:
    # The Renyi orders of renyi_converse and the phase bounds are roots of
    # psi - (l - s) psi', found without a grid search.  Tolerances: the
    # bound carries the atoms' rounding (a few ulps of psi) amplified by
    # n / (l - 1), which stays below 1e-12 relative for n <= 2000.
    PAIRS = (
        "bernoulli:0.5,0.51",
        "bernoulli:0.5,0.7",
        "bernoulli:0.1,0.35",
        "discrete:0.2,0.3,0.5|0.5,0.3,0.2",
        "discrete:0.7,0.2,0.1|0.1,0.3,0.6",
    )

    @pytest.mark.parametrize("spec", PAIRS)
    def test_both_branches_match_mpmath(self, spec):
        pair = parse_pair(spec)
        for n in (10, 400, 2000):
            for log_eps, want in zip(_budgets(pair, n), MP_RENYI_CONVERSE[spec, n]):
                r = renyi_converse(pair, n, log_eps)
                case = (n, log_eps, r.optimizer)
                assert r.log_value == pytest.approx(want, rel=1e-11, abs=0.0), case
                assert r.log_value <= want + 1e-11 * abs(want), case

    def test_frozen_references_match_their_generator(self):
        # one row of MP_RENYI_CONVERSE recomputed; its last budget is at the l = inf end
        pair = parse_pair("bernoulli:0.5,0.7")
        got = tuple(_mp_renyi_converse(pair, 400, log_eps) for log_eps in _budgets(pair, 400))
        assert got == pytest.approx(MP_RENYI_CONVERSE["bernoulli:0.5,0.7", 400], rel=1e-15,
                                    abs=0.0)

    def test_infinite_order_endpoint(self):
        # appF_bernoulli20_exponential: at c = 20 D, log eps / n = -c lies
        # below H_0(inf) = log P0(argmax p1/p0) = log 0.5, so branch one
        # decreases in l all the way and its infimum is the l = inf limit
        # log eps + n D_inf(P1||P0).  The old 1e6 cap gave -1.389456e-57.
        pair = parse_pair("bernoulli:0.5,0.7")
        c = 20.0 * kl_divergence(pair, Direction.REVERSE)
        r = renyi_converse(pair, 100, -c * 100)
        assert r.optimizer == math.inf
        assert r.log_value == pytest.approx(-1.389324e-57, rel=1e-6, abs=0.0)
        with mpmath.workdps(60):
            g = mpmath.mpf(-c * 100) + 100 * mp_record(pair, Direction.REVERSE).d_inf
            want = float(mpmath.log1p(-mpmath.exp(g)))
        assert r.log_value == pytest.approx(want, rel=1e-12, abs=0.0)
        from htbounds.cli import DEFAULT_N

        assert all(renyi_converse(pair, n, -c * n).optimizer == math.inf for n in DEFAULT_N)

    @pytest.mark.parametrize("s, direction", [(0.0, Direction.REVERSE), (1.0, Direction.FORWARD)])
    def test_root_solver_reports_the_infinite_order_end(self, s, direction):
        # H_s falls to H_s(inf) = log Q(A) + s D_inf as l -> inf, so the
        # solver returns l = inf exactly for targets at or below that end,
        # and a finite root of H_s = target above it, however close.  At
        # s = 1 an end test that left out s D_inf would return a finite
        # order at the end itself, where H_s(l) rounds onto the target.
        atoms = _tilt_atoms(parse_pair("discrete:0.7,0.2,0.1|0.1,0.3,0.6"), direction)
        end = atoms.log_q_top + s * atoms.d_inf
        h_one = -atoms.kl if s == 0.0 else 0.0  # H_s(1)
        for target in (end - 1.0, end - 1e-9, end):
            got = htbounds.bounds._tilt_root(atoms, s, target, 1.0, math.inf)
            assert got == (math.inf, None, None), target - end
        for target in (end + 1e-12, end + 1e-9, end + 1e-3, 0.5 * (end + h_one)):
            lam, psi, _ = htbounds.bounds._tilt_root(atoms, s, target, 1.0, math.inf)
            assert 1.0 < lam < math.inf, target - end
            psi_at, mean, _, _ = _tilt(atoms, lam)
            assert psi == psi_at
            assert psi - (lam - s) * mean == pytest.approx(target, rel=1e-12, abs=0.0)

    def test_gaussian_closed_forms_match_optimizer(self):
        # The closed forms against a dense scan-and-polish of the
        # documented objectives.  The grid includes cases where branch one
        # is vacuous (n D >= log 1/eps).
        for pair in (GAUSS, GaussianPair(0.0, 0.3, 1.0), GaussianPair(1.0, -2.0, 0.5)):
            for n in (1, 10, 100, 1000, 10000):
                for eps in (1e-100, 1e-10, 0.01, 0.3, 0.9):
                    log_eps = math.log(eps)

                    def one(lam):
                        return -((lam - 1.0) / lam) * (
                            log_eps + n * renyi_reference(pair, lam, Direction.REVERSE)
                        )

                    def two(lam):
                        return (lam / (lam - 1.0)) * math.log1p(-eps) - n * renyi_reference(
                            pair, lam, Direction.FORWARD
                        )

                    g = -scan_polish_argmax(one, 1.0, math.inf)[1]
                    want = scan_polish_argmax(two, 1.0, math.inf)[1]
                    if -log_eps > n * kl_divergence(pair, Direction.REVERSE):
                        want = max(want, math.log1p(-math.exp(g)))
                    else:
                        assert g > -1e-9  # vacuous: the infimum is the l -> 1 limit 0
                    # The scan cannot go below l = 1 + 1e-9, its first
                    # offset, which costs up to 1e-9 relative where the
                    # optimum of branch two lies closer to 1 (eps = 1e-100).
                    r = renyi_converse(pair, n, log_eps)
                    assert r.log_value == pytest.approx(want, rel=2e-9, abs=1e-300), (pair, n, eps)
                    assert r.log_value >= want - 1e-12 * abs(want), (pair, n, eps)

    def test_near_critical_phase_exponent_matches_mpmath(self):
        # The Hoeffding exponent at c just below D, where the old code lost
        # it to cancellation (3.20e-13 returned against the true 1.0003e-13
        # at bernoulli:0.5,0.51, c = 0.999999 D).  Never above the truth:
        # the upper bound on beta must not understate.
        n = 2000
        for spec in ("bernoulli:0.5,0.51", "bernoulli:0.5,0.7"):
            pair = parse_pair(spec)
            d = kl_divergence(pair, Direction.REVERSE)
            for ratio in (0.999, 0.999999):
                log_eps = -ratio * d * n
                with mpmath.workdps(60):
                    le, rev = mpmath.mpf(log_eps), mp_record(pair, Direction.REVERSE)
                    want = _mp_golden(lambda l: -(le * (l - 1) + n * mp_tilt(rev, l - 1).psi) / l,
                                      0, 1)
                got = -phase_transition_achievability(pair, n, log_eps).log_value
                assert abs(got - want) <= 1e-6 * want, (spec, ratio, got, float(want))
                assert got <= want, (spec, ratio)

    def test_no_grid_search(self):
        # The roots alone give valid values, the K = 3 converse too where
        # beta < 1e-30 (n = 2000 at eps = 0.01, 1/n and e^{-nD/4}).
        disc = FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))
        for pair in (BERN, GAUSS, disc, FiniteDiscretePair(disc.p1, disc.p0)):
            d = kl_divergence(pair, Direction.REVERSE)
            for n in (10, 100, 500, 1000, 2000):
                for regime in (Constant(0.01), Linear(), Exponential(0.25 * d)):
                    assert renyi_converse(pair, n, eps_at(regime, n)[1]).valid, (pair, n, regime)
                assert renyi_converse(pair, n, -2.0 * d * n).valid
                assert phase_transition_achievability(pair, n, -0.5 * d * n).valid

    # Gaussian pairs with psi''(1) = (delta / sigma)^2 of 1e-320 and 1e-306,
    # whose orders (about 1e153 to 1e160) are the quadratic model's root:
    # that start overflows unless it is formed as s + sqrt(w) / sqrt(psi''(1)).
    @pytest.mark.parametrize("delta, log_eps, want", [
        (1e-160, -5.0, 0.9932620530009145),
        (1e-160, -1e-6, 9.999995000001659e-07),
        (1e-153, -999.0, 1.0),
        # an order past the float range: the root search stops at l ~ 2^41,
        # where g* is log eps to double precision
        (1e-160, -1e300, 1.0),
    ])
    def test_start_in_float_range_at_tiny_separation(self, delta, log_eps, want):
        r = renyi_converse(GaussianPair(0.0, delta), 1, log_eps)
        assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert r.valid

    def test_identical_discrete_pair(self):
        # z = 0 everywhere: both branches sit at l = inf with value 1 - eps.
        same = FiniteDiscretePair((0.25, 0.75), (0.25, 0.75))
        r = renyi_converse(same, 50, math.log(0.2))
        assert r.optimizer == math.inf
        assert r.value == pytest.approx(0.8, rel=1e-15, abs=0.0)


def _phase_threshold(pair, n, log_eps):
    """tau = (n psi(l*) - log eps) / l* at the phase bound's order l*, psi from the reverse record.

    n psi - log eps does not cancel, so tau keeps its accuracy as l* -> 1.
    """
    lam = phase_transition_achievability(pair, n, log_eps).optimizer
    psi = _tilt(_tilt_atoms(pair, Direction.REVERSE), lam)[0]
    return (n * psi - log_eps) / lam


def _mp_min_u(pair, n, tau):
    """min of u(l) = n psi(l) - l tau over l in [0, 1], at 60 digits.

    psi is the reverse-direction tilted log-sum of ``mp_tilt`` (Gaussian
    pairs: its closed form l (l - 1) d^2 / 2); u is convex, so golden section finds it, or
    an end, where golden section stops 1e-21 short.  The ends are taken
    exactly, u(0) = 0 and u(1) = -tau, since psi(0) = psi(1) = 0 on a
    common support; psi summed at 60 digits leaves about 1e-61 there.
    """
    with mpmath.workdps(60):
        t, rev = mpmath.mpf(tau), mp_record(pair, Direction.REVERSE)

        def neg_u(lam):
            return lam * t - n * mp_tilt(rev, lam - 1).psi

        return -max(_mp_golden(neg_u, 0, 1), 0, t)


class TestRenyiAchievabilityAtThreshold:
    def test_matches_phase_bound_through_threshold_construction(self):
        # The phase achievability bound is this bound evaluated at the
        # matching threshold with the alpha term dropped.
        n = 10000
        log_eps = -kl_divergence(BERN, Direction.REVERSE) / 2 * n
        pa = phase_transition_achievability(BERN, n, log_eps)
        tau = _phase_threshold(BERN, n, log_eps)
        r = renyi_achievability_at_threshold(BERN, n, tau, -math.inf)
        # Both are about -0.17; they differ by the rounding of tau.
        assert r.log_value == pytest.approx(pa.log_value, rel=1e-11, abs=0.0)
        assert r.valid

    # Where min u <= log alpha the numerator is non-positive at the minimizer:
    # alpha is not a lower bound on the test's Type I error, and no end value
    # stands in for the bound.
    FAILED_PREMISE = (0.0, -math.inf, None, False)

    def test_alpha_term_cancels_to_zero_at_optimum(self):
        # At tau = 0 with alpha = e^{-nc} and c = D/4 the numerator
        # vanishes exactly at lambda* = 1/2.
        n, c = 1000, D_GAUSS / 4
        r = renyi_achievability_at_threshold(GAUSS, n, 0.0, -n * c)
        assert (r.value, r.log_value, r.optimizer, r.valid) == self.FAILED_PREMISE

    def test_infeasible_lambdas_flagged(self):
        # At n = 10^4, alpha = 0.9 the numerator goes non-positive for
        # mid-range lambda (where (lambda-1) n D_lambda dips below
        # log alpha) while the ends of (0, 1) stay feasible.
        r = renyi_achievability_at_threshold(BERN, 10000, 0.0, math.log(0.9))
        assert (r.value, r.log_value, r.optimizer, r.valid) == self.FAILED_PREMISE

    def test_tiny_alpha_only_ends_feasible(self):
        # alpha = e^{-1000} at n = 10^8, tau = 1: min u is about -2500, so
        # the numerator goes non-positive mid-range, while u is above -2 at
        # the ends, where e^{u - log alpha} is past the largest double.
        n, tau, log_alpha = 10**8, 1.0, -1000.0
        assert _mp_min_u(BERN, n, tau) < log_alpha
        r = renyi_achievability_at_threshold(BERN, n, tau, log_alpha)
        assert (r.value, r.log_value, r.optimizer, r.valid) == self.FAILED_PREMISE

    @pytest.mark.parametrize("spec", ("bernoulli:0.5,0.7", "discrete:0.7,0.2,0.1|0.1,0.3,0.6",
                                      "gaussian:2,0.3"))
    def test_matches_mpmath(self, spec):
        # tau on both sides of n psi'(0) = -n D(P0||P1) and n psi'(1) =
        # n D(P1||P0), so the order is interior or at either end; alpha 0,
        # or e^{-2} or e^{-1000} below the smallest numerator term e^{min u}
        # (the latter puts e^{u - log alpha} past the largest double).  At
        # tau = -3 n D the order is the end l = 0, and at tau = 1.5 n D the
        # end l = 1, where the bound is 1 - alpha e^tau: log 0 at alpha = 0.
        pair = parse_pair(spec)
        d = kl_divergence(pair, Direction.REVERSE)
        for n in (10, 400):
            for tau in (-3.0 * n * d, 0.3 * n * d, 0.9 * n * d, 1.5 * n * d):
                u_min = _mp_min_u(pair, n, tau)
                for log_alpha in (-math.inf, float(u_min) - 2.0, float(u_min) - 1000.0):
                    r = renyi_achievability_at_threshold(pair, n, tau, log_alpha)
                    with mpmath.workdps(60):
                        want = float(tau + u_min + mpmath.log1p(-mpmath.exp(log_alpha - u_min)))
                    case = (n, tau, log_alpha, r.optimizer)
                    assert r.optimizer is not None and r.valid == (r.log_value <= 0.0), case
                    assert r.log_value == pytest.approx(want, rel=1e-11, abs=0.0), case
                    assert r.log_value >= want, case

    @pytest.mark.parametrize("spec", ("bernoulli:0.5,0.7", "discrete:0.7,0.2,0.1|0.1,0.3,0.6"))
    def test_order_below_half_is_sound(self, spec):
        # tau = n psi'(l0) puts the optimal order at l0 < 1/2, where psi is
        # summed about l = 0 (and, for the K = 3 pair at l0 = 0.3, as a
        # shifted sum); the value is still never below mpmath.
        pair = parse_pair(spec)
        n = 400
        for lam0 in (0.1, 0.3):
            tau = n * _tilt(_tilt_atoms(pair, Direction.REVERSE), lam0)[1]
            u_min = _mp_min_u(pair, n, tau)
            for log_alpha in (-math.inf, float(u_min) - 2.0):
                r = renyi_achievability_at_threshold(pair, n, tau, log_alpha)
                with mpmath.workdps(60):
                    want = float(tau + u_min + mpmath.log1p(-mpmath.exp(log_alpha - u_min)))
                case = (lam0, log_alpha, r.optimizer)
                assert r.valid and r.optimizer == pytest.approx(lam0, rel=1e-9, abs=0.0), case
                assert r.log_value == pytest.approx(want, rel=1e-11, abs=0.0), case
                assert r.log_value >= want, case

    def test_near_critical_exponent_matches_mpmath(self):
        # The threshold of the phase bound at log eps = -c n, c just below D,
        # where forming (l - 1) n D_l from a log-sum-exp overstated the exponent (-3.98e-13
        # returned at bernoulli:0.5,0.51, n = 2000, c = 0.999999 D, against
        # 1.0003e-13).
        # The truth is the bound at the same float tau, minimized at 60
        # digits; the returned exponent is never above it.
        n = 2000
        for spec in ("bernoulli:0.5,0.51", "bernoulli:0.5,0.7"):
            pair = parse_pair(spec)
            d = kl_divergence(pair, Direction.REVERSE)
            for ratio in (0.999, 0.999999):
                tau = _phase_threshold(pair, n, -ratio * d * n)
                r = renyi_achievability_at_threshold(pair, n, tau, -math.inf)
                want = -float(tau + _mp_min_u(pair, n, tau))
                got = -r.log_value
                assert r.valid
                assert abs(got - want) <= 1e-6 * want, (spec, ratio, got, want)
                assert got <= want, (spec, ratio, got, want)

    def test_near_critical_threshold_is_valid(self):
        # tau just below n D(P1||P0), from c = (1 - 1e-9) D: the order is the
        # root 0.9999999995, beyond 1 - 1e-9, and the log is the
        # phase_achievability cell's to the rounding of tau
        r = renyi_achievability_at_threshold(BERN, 2000, 0.40002667053422375, -math.inf)
        assert r.valid
        assert r.log_value == pytest.approx(-9.997993717e-20, rel=1e-7, abs=0.0)
        assert 0.9999999994 < r.optimizer < 0.9999999996

    def test_order_zero_end(self):
        # tau = -50 is below -n D(P0||P1) = -5: the order is the end l = 0,
        # where psi = 0 and the bound is e^tau (1 - alpha), e^-50 at alpha = 0
        # (l = 1e-9 gives -49.999999955); TestCli pins the end l = 1
        r = renyi_achievability_at_threshold(parse_pair("gaussian:0,1"), 10, -50.0, -math.inf)
        assert r.optimizer == 0.0 and r.valid
        assert r.log_value == pytest.approx(-50.0, rel=1e-14, abs=0.0)
        assert r.log_value >= -50.0

    def test_entirely_infeasible_degenerates(self):
        r = renyi_achievability_at_threshold(BERN, 100, 0.0, 0.0)
        assert (r.value, r.log_value, r.optimizer, r.valid) == self.FAILED_PREMISE

    def test_decreasing_in_alpha(self):
        tau = 0.5
        r0 = renyi_achievability_at_threshold(BERN, 1000, tau, -math.inf)
        r1 = renyi_achievability_at_threshold(BERN, 1000, tau, math.log(1e-4))
        assert r1.value <= r0.value + 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            renyi_achievability_at_threshold(BERN, 100, math.inf, -1.0)


def _mp_sample_size(pair, eps, delta):
    """The optimized sample-size bound by golden section at 50 digits.

    Each direction's term ((l-1) top - l bottom) / psi(l), top = log 1/b
    and bottom = log 1/(1-a), runs over v = log(l - 1) in (-800, 60), with
    psi(1 + h) from ``mp_tilt`` at the step h, so that an order within
    1e-300 of 1 keeps its digits.  The term is unimodal in v, and v -> 60 reaches
    its l = inf limit.
    """
    with mpmath.workdps(50):
        terms = []
        for direction, a, b in ((Direction.FORWARD, eps, delta), (Direction.REVERSE, delta, eps)):
            record = mp_record(pair, direction)
            top, bottom = -mpmath.log(b), -mpmath.log1p(-mpmath.mpf(a))

            def term(v, record=record, top=top, bottom=bottom):
                h = mpmath.exp(v)
                return (h * top - (1 + h) * bottom) / mp_tilt(record, h).psi

            terms.append(_mp_golden(term, -800, 60))
        return float(max(terms))


# _mp_sample_size(pair, eps, delta): at (1.9e-12, 1.8e-12), s - 1 = log 1/(1-eps) /
# (log 1/delta - log 1/(1-eps)) is about 7e-14, and at (1e-300, 1e-300) the
# optimal order lies below an ulp above 1.
MP_SAMPLE_SIZE = {
    ("bernoulli:0.5,0.6", 0.01, 0.01): 208.04969189050504,
    ("bernoulli:0.5,0.6", 1.9e-12, 1.8e-12): 1340.375717936083,
    ("bernoulli:0.5,0.6", 1e-300, 1e-300): 34306.327780479245,
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 0.01, 0.01): 15.278802139233752,
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 1.9e-12, 1.8e-12): 98.37933046538392,
    ("discrete:0.2,0.3,0.5|0.5,0.3,0.2", 1e-300, 1e-300): 2512.9415947320604,
}


class TestSampleComplexity:
    def test_renyi_reference_at_lambda_two(self):
        r = sample_complexity_renyi(GAUSS, 0.01, 0.01, lam=2.0)
        assert r.value == pytest.approx(COR1_VALUE, rel=1e-12, abs=0.0)
        assert math.ceil(r.value) == 1835
        assert r.kind is BoundKind.LOWER_N

    def test_infinite_where_the_divergence_underflows(self):
        # gaussian:0,1e-160 has d^2 = 1e-320, so psi(l) = l (l - 1) d^2 / 2, and
        # with it D_l, underflows to 0 within about 4e-4 of l = 0 or 1; the pair
        # is still distinct, and each of these sample sizes is inf
        pair, e1 = GaussianPair(0.0, 1e-160), math.exp(-1.0)
        for eps, delta in ((1e-300, e1), (e1, 1e-300)):
            r = sample_complexity_pensia(pair, eps, delta)
            assert r.value == math.inf and r.valid
        r = sample_complexity_renyi(pair, e1, 1e-300, lam=1.0001)
        assert r.value == math.inf and r.valid

    @pytest.mark.parametrize("eps, delta", [(0.1, 0.01), (math.exp(-0.5), math.exp(-1.0))])
    def test_gaussian_order_at_every_separation(self, eps, delta):
        # The order of the first crossing, the larger here, is the closed-form
        # root sqrt(log 1/delta) / gap at every separation (the value is inf
        # at 1e-160, past the float range).  The general root of _tilt_root
        # on a Gaussian record misses it at the outer two: 1.1758 for 1.1782
        # at 1e-160 (eps = 0.1), and at 1e153 (eps = e^-1/2) its start overflows.
        top, bottom = -math.log(delta), -math.log1p(-eps)
        want = math.sqrt(top) / (math.sqrt(top) - math.sqrt(bottom))
        for sep in (1e-160, 1.0, 1e153):
            r = sample_complexity_renyi(GaussianPair(0.0, sep), eps, delta)
            assert r.optimizer == pytest.approx(want, rel=1e-14, abs=0.0), sep

    @pytest.mark.parametrize("spec, eps, delta", list(MP_SAMPLE_SIZE))
    def test_optimized_matches_mpmath_at_the_edges(self, spec, eps, delta):
        r = sample_complexity_renyi(parse_pair(spec), eps, delta)
        want = MP_SAMPLE_SIZE[spec, eps, delta]
        assert r.value == pytest.approx(want, rel=1e-13, abs=0.0), r.optimizer

    def test_frozen_sample_size_references_match_their_generator(self):
        # the row whose optimal order lies below an ulp above 1, recomputed
        key = ("bernoulli:0.5,0.6", 1e-300, 1e-300)
        assert _mp_sample_size(parse_pair(key[0]), *key[1:]) == pytest.approx(
            MP_SAMPLE_SIZE[key], rel=1e-15, abs=0.0)

    def test_exact_sample_size_pinned(self):
        pair = parse_pair("bernoulli:0.5,0.6")
        assert exact_sample_size(pair, 0.01, 0.01) == 534

    def test_optimized_dominates_fixed_lambda(self):
        fixed = sample_complexity_renyi(GAUSS, 0.01, 0.01, lam=2.0)
        best = sample_complexity_renyi(GAUSS, 0.01, 0.01)
        assert best.value >= fixed.value - 1e-6

    @pytest.mark.parametrize("spec", ("bernoulli:0.5,0.6", "bernoulli:0.1,0.35",
                                      "discrete:0.7,0.2,0.1|0.1,0.3,0.6",
                                      "discrete:0.2,0.3,0.5|0.5,0.3,0.2",
                                      "gaussian:2,0.05", "gaussian:-1,1.5,3"))
    def test_optimized_matches_scan(self, spec):
        # The larger of the two crossings in n against the documented
        # objective maximized over l by a dense scan, and against every
        # order of a 200-point fixed-order scan.  The scan stops at
        # l = 1 + 1e6, so the l -> inf limit, with D_inf = log max p/q for
        # discrete pairs (inf for Gaussian ones), joins the reference.
        pair = parse_pair(spec)
        lams = 1.0 + np.geomspace(1e-3, 1e3, 200)
        d_inf_fwd, d_inf_rev = (float(mp_record(pair, direction).d_inf) for direction in Direction)
        for eps, delta in ((0.01, 0.01), (0.01, 1e-6), (0.3, 0.05), (1e-8, 0.2), (0.4, 0.4),
                           (1e-12, 2.89e-12)):
            def objective(lam):
                ratio = lam / (lam - 1.0)
                first = (-math.log(delta) + ratio * math.log1p(-eps)) / renyi_reference(
                    pair, lam, Direction.FORWARD)
                second = (-math.log(eps) + ratio * math.log1p(-delta)) / renyi_reference(
                    pair, lam, Direction.REVERSE)
                return np.maximum(first, second)

            r = sample_complexity_renyi(pair, eps, delta)
            limit = max((-math.log(delta) + math.log1p(-eps)) / d_inf_fwd,
                        (-math.log(eps) + math.log1p(-delta)) / d_inf_rev)
            want = max(scan_polish_argmax(objective, 1.0, math.inf)[1], limit)
            case = (eps, delta, r.value, r.optimizer)
            if r.valid:
                assert r.value == pytest.approx(want, rel=1e-9, abs=0.0), case
            else:
                assert r.value == 1.0 and want < 1.0 + 1e-9, case
            fixed = max(sample_complexity_renyi(pair, eps, delta, lam=float(x)).value for x in lams)
            assert r.value >= fixed * (1.0 - 1e-12), case

    @pytest.mark.parametrize("eps, delta", [(1e-12, 2.8875612077371645e-12),
                                            (0.36787944117144233, 1.5428112031918877e-13)])
    def test_order_where_branch_one_turns_vacuous(self, eps, delta):
        # The second crossing lies just below n D(P1||P0) = log(1/eps),
        # where branch one turns vacuous.  Its term increases in l here, so
        # the crossing is the l -> inf limit (log(1/eps) + log(1 - delta)) /
        # D_inf(P1||P0), and that order is reported, not None.
        r = sample_complexity_renyi(BernoulliPair(0.1, 1e-14), eps, delta)
        with mpmath.workdps(60):
            d_inf = mp_record(BernoulliPair(0.1, 1e-14), Direction.REVERSE).d_inf
            want = float((-mpmath.log(eps) + mpmath.log1p(-delta)) / d_inf)
        assert r.optimizer == math.inf
        assert r.value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_no_crossing_when_eps_plus_delta_reaches_one(self):
        # Both terms are negative for every l: clamped to 1, with the
        # optimizer at the l -> inf limit the supremum is approached in.
        for pair in (BERN, GAUSS, parse_pair("discrete:0.7,0.2,0.1|0.1,0.3,0.6")):
            r = sample_complexity_renyi(pair, 0.3, 0.8)
            assert (r.value, r.valid, r.optimizer) == (1.0, False, math.inf)

    def test_identical_pair_rejected(self):
        # Optimized or at a fixed order: D_lam = 0 would be the divisor.
        same = FiniteDiscretePair((0.25, 0.75), (0.25, 0.75))
        for lam in (None, 1.5, 2.0, 1e6):
            with pytest.raises(DomainError) as info:
                sample_complexity_renyi(same, 0.01, 0.01, lam=lam)
            assert str(info.value) == "sample_complexity_renyi requires distinct distributions"
        with pytest.raises(DomainError) as info:
            sample_complexity_pensia(same, 0.01, 0.01)
        assert str(info.value) == "sample_complexity_pensia requires distinct distributions"

    def test_clamps_below_one(self):
        wide = GaussianPair(0.0, 5.0)  # D = 12.5, one sample more than enough
        r = sample_complexity_renyi(wide, 0.4, 0.4)
        assert r.value == 1.0
        assert not r.valid

    def test_pensia_reference(self):
        r = sample_complexity_pensia(GAUSS, 0.01, 0.001)
        assert r.value == pytest.approx(PENSIA_VALUE, rel=1e-12, abs=0.0)
        assert r.optimizer == pytest.approx(PENSIA_LAMBDA, rel=1e-12, abs=0.0)
        assert math.ceil(r.value) == 4051

    def test_pensia_refused_outside_its_premise(self):
        # the printed form gives 250,778 here, where the exact
        # n* = ceil(((Q^-1(eps) + Q^-1(delta)) / d)^2) is 207,406
        with pytest.raises(DomainError, match=r"here 0\.0847 > 0\.0445$"):
            sample_complexity_pensia(GaussianPair(0.0, 0.0016916), 0.321, 0.380)

    @pytest.mark.parametrize("eps, delta", [(0.328125, 0.5 - 2.0**-54), (0.5 - 2.0**-54, 0.3)])
    def test_pensia_premise_near_one_half(self, eps, delta):
        # l* nears 0 (1): both sides of the premise are about 1e-17, and a
        # log-sum-exp of f's terms passed the first cell with a form of 42.1,
        # where the exact n* at d = 0.1 is 20
        with pytest.raises(DomainError, match=r"here 5\.55e-17 > 1\.[0-9]+e-17$"):
            sample_complexity_pensia(GaussianPair(0.0, 0.1), eps, delta)

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_complexity_renyi(GAUSS, 0.0, 0.1)
        with pytest.raises(DomainError):
            sample_complexity_renyi(GAUSS, 0.1, 1.0)
        with pytest.raises(DomainError):
            sample_complexity_renyi(GAUSS, 0.1, 0.1, lam=1.0)
        with pytest.raises(DomainError):
            sample_complexity_pensia(GAUSS, 0.5, 0.1)
        with pytest.raises(DomainError):
            sample_complexity_pensia(GAUSS, 0.1, 0.7)


class TestFano:
    def test_reference_value(self):
        r = fano_bound(GAUSS, 1000, math.log(0.01))
        assert r.value == pytest.approx(FANO_1000, rel=1e-12, abs=0.0)
        assert r.optimizer is None
        assert r.valid

    def test_clamps_above_one(self):
        # Small n and large eps push the display above 1: the value caps at
        # 1, and the log keeps the unclamped display.
        r = fano_bound(GAUSS, 10, math.log(0.9))
        want = -10 * kl_divergence(GAUSS, Direction.FORWARD) - math.log(2.0) - math.log(0.1)
        assert r.value == 1.0
        assert r.log_value == pytest.approx(want, rel=1e-14, abs=0.0) and r.log_value > 0.0
        assert not r.valid


class TestHellinger:
    def test_reference_value(self):
        r = hellinger_bound(GAUSS, 50, math.log(0.01))
        assert r.value == pytest.approx(HELL_BOUND_50, rel=1e-12, abs=0.0)
        assert r.valid

    def test_vacuous_at_large_n(self):
        r = hellinger_bound(BernoulliPair(0.5, 0.7), 1000, math.log(0.01))
        assert r.value == 0.0
        assert not r.valid

    @pytest.mark.parametrize("delta, n", [(2.0**-10, 1), (0.5, 1), (0.5, 11), (0.5, 12),
                                          (0.5, 100), (0.5, 2000)])
    def test_one_minus_sqrt_matches_mpmath(self, delta, n):
        # For a Gaussian pair 2n log(1 - H^2) = -n delta^2 / 4, exact here,
        # and eps = e^-1000 rounds to 0, so the bound is 1 - sqrt(x) with
        # x = 1 - e^{-n delta^2 / 4}: below 1/2 up to (0.5, 11), above from
        # (0.5, 12).  Its log is compared, to 1e-14 absolute (so the value
        # to 1e-14 relative), since exp(log) would add |log| ulps.  1 - sqrt(x)
        # cancels 55 digits at (0.5, 2000), so the reference runs at 120 digits.
        r = hellinger_bound(GaussianPair(0.0, delta), n, -1000.0)
        with mpmath.workdps(120):
            record = mp_record(GaussianPair(0.0, delta), Direction.FORWARD)
            x = -mpmath.expm1(2 * n * record.log_affinity)
            want = float(mpmath.log(1 - mpmath.sqrt(x)))
        assert r.log_value == pytest.approx(want, rel=0.0, abs=1e-14)


class TestBerryEsseen:
    def test_infeasible_at_small_n(self):
        # sqrt(n)(1 - eps) stays below the Berry-Esseen constant.
        r = berry_esseen_bound(GAUSS, 50, math.log(0.01))
        assert r.value == 0.0
        assert not r.valid

    def test_optimized_dominates_fixed_delta(self):
        n, log_eps = 10000, math.log(0.01)
        best = berry_esseen_bound(GAUSS, n, log_eps)
        assert best.valid
        with mpmath.workdps(60):
            f = _mp_berry_esseen_objective(GAUSS, n, log_eps)
            for delta in (0.5, 1.0, 20.0):
                assert best.log_value >= float(f(mpmath.mpf(delta))) - 1e-9

    @pytest.mark.parametrize("n", [10**16, 10**30])
    def test_answers_where_the_upper_end_rounds_to_hi(self, n):
        # At the end Delta = hi the Q^{-1} argument rounds to 0 or below: the
        # slope there is its limit, and the bound answers with its log,
        # valid though beta itself underflows to 0.
        pair = BernoulliPair(0.5, 0.6)
        r = berry_esseen_bound(pair, n, math.log(0.01))
        assert r.value == 0.0 and r.valid
        nd = n * kl_divergence(pair, Direction.FORWARD)
        assert r.log_value == pytest.approx(-nd, rel=1e-5, abs=0.0)
        assert 0.13 < r.optimizer < 0.14

    def test_validation(self):
        # Checked before the early exits: at n = 10 the interval for Delta
        # is empty, and an identical pair has no LLR variance.
        same = parse_pair("discrete:0.5,0.5|0.5,0.5")
        for pair, n in ((GAUSS, 10000), (BERN, 10), (same, 1000)):
            for bad in (0.0, math.nan):
                with pytest.raises(DomainError, match="log_eps must be finite and < 0"):
                    berry_esseen_bound(pair, n, bad)
        for pair in (GAUSS, BERN, same):
            with pytest.raises(DomainError, match="n must be an integer >= 1"):
                berry_esseen_bound(pair, 0, math.log(0.01))


class TestSmoothingOut:
    def test_five_term_reference(self):
        # The test-side objective is the five-term formula at the pinned
        # point, and the bound is that objective at its own temperature.
        r = smoothing_out_bound(GAUSS, 1000, math.log(0.01))
        with mpmath.workdps(60):
            f = _mp_smoothing_objective(GAUSS, 1000, math.log(0.01))
            assert float(f(mpmath.mpf(0.001))) == pytest.approx(SMOOTH_TOTAL, abs=1e-12)
            want = float(f(mpmath.mpf(r.optimizer)))
        assert r.log_value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert r.log_value > SMOOTH_TOTAL

    def test_optimized_dominates_fixed_t(self):
        best = smoothing_out_bound(GAUSS, 1000, math.log(0.01))
        with mpmath.workdps(60):
            f = _mp_smoothing_objective(GAUSS, 1000, math.log(0.01))
            for t in (0.001, 0.01, 0.1, 1.0):
                assert best.log_value >= float(f(mpmath.mpf(t))) - 1e-9

    @pytest.mark.parametrize("spec", ("gaussian:2,0.05", "gaussian:2,0.1", "gaussian:2,0.3"))
    def test_log_value_matches_mpmath_at_its_temperature(self, spec):
        # The fig2 and appF pairs at every fifth reproduce n, t from 1e-9 up:
        # n (cosh 2t - 1) cancelled to 1.2e-13 relative, 2n sinh^2 t does not.
        pair = parse_pair(spec)
        c = 20.0 * kl_divergence(pair, Direction.REVERSE)
        for n in DEFAULT_N[::5]:
            for regime in (Constant(0.01), Linear(), Exponential(c)):
                _, log_eps = eps_at(regime, n)
                r = smoothing_out_bound(pair, n, log_eps)
                with mpmath.workdps(60):
                    want = _mp_smoothing_objective(pair, n, log_eps)(mpmath.mpf(r.optimizer))
                assert r.log_value == pytest.approx(float(want), rel=1e-14, abs=0.0), (n, regime)

    def test_gaussian_only(self):
        with pytest.raises(DomainError, match="smoothing_out_bound requires a GaussianPair"):
            smoothing_out_bound(BERN, 100, math.log(0.01))

    def test_sigma_rescaling_invariance(self):
        # (mu, delta, sigma) and (0, delta/sigma, 1) are the same problem.
        a = smoothing_out_bound(GaussianPair(3.0, 0.4, 2.0), 500, math.log(0.05))
        b = smoothing_out_bound(GaussianPair(0.0, 0.2, 1.0), 500, math.log(0.05))
        assert a.log_value == pytest.approx(b.log_value, rel=1e-12, abs=0.0)


def _mp_berry_esseen_objective(pair, n, log_eps):
    """The Berry-Esseen bound's log as a function of Delta, in the working precision."""
    record = mp_record(pair, Direction.FORWARD)
    mean, var, berry = record.kl, record.var, record.berry
    one_m_eps = -mpmath.expm1(mpmath.mpf(log_eps))

    def f(dl):
        x = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * (one_m_eps - (berry + dl) / mpmath.sqrt(n)))
        return -n * mean - mpmath.sqrt(n * var) * x + mpmath.log(dl) - mpmath.log(n) / 2

    return f


def _mp_berry_esseen(pair, n, log_eps):
    """log of the Berry-Esseen bound maximized over Delta in [1e-9, hi - 1e-9].

    At 60 digits; None when hi <= 0.  The search runs over x = Q^{-1}(w)
    instead of Delta: Delta(x) = sqrt(n)(1 - eps - Q(x)) - B increases in
    x, so the objective is unimodal in x and needs Q, not its inverse,
    except at the two ends.  The bound falls to -inf at both ends of the
    library's domain [0, hi], so an interior maximum, as in every case
    compared here, is the same over either.
    """
    with mpmath.workdps(60):
        record = mp_record(pair, Direction.FORWARD)
        mean, var, berry = record.kl, record.var, record.berry
        one_m_eps = -mpmath.expm1(mpmath.mpf(log_eps))
        sqrt_n = mpmath.sqrt(n)
        hi = sqrt_n * one_m_eps - berry
        if hi <= 0:
            return None
        edge = mpmath.mpf(1e-9)

        def x_at(dl):
            return mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * (one_m_eps - (berry + dl) / sqrt_n))

        def f(x):
            dl = sqrt_n * (one_m_eps - mpmath.erfc(x / mpmath.sqrt(2)) / 2) - berry
            return -n * mean - mpmath.sqrt(n * var) * x + mpmath.log(dl) - mpmath.log(n) / 2

        return float(_mp_golden(f, x_at(edge), x_at(hi - edge)))


def _mp_smoothing_objective(pair, n, log_eps):
    """The smoothing bound's log as a function of t, in the working precision."""
    d2 = mp_record(pair, Direction.FORWARD).var
    log_1m_eps = mpmath.log(-mpmath.expm1(mpmath.mpf(log_eps)))

    def f(t):
        return (-n * d2 / 2 + log_1m_eps / -mpmath.expm1(-2 * t) - n * t
                - d2 / 2 * mpmath.expm1(t) ** 2 - n * (mpmath.cosh(2 * t) - 1))

    return f


def _mp_smoothing(pair, n, log_eps):
    """log of the smoothing bound maximized over t in [1e-9, 10 - 1e-9] at 60
    digits, by golden section over log t, which reaches either end."""
    with mpmath.workdps(60):
        f = _mp_smoothing_objective(pair, n, log_eps)
        lo, hi = mpmath.log(mpmath.mpf(1e-9)), mpmath.log(10 - mpmath.mpf(1e-9))
        return float(_mp_golden(lambda u: f(mpmath.exp(u)), lo, hi))


class TestBaselineRoots:
    # The Berry-Esseen slack and the smoothing temperature are roots of
    # their stationarity equations, found without a grid search.  The
    # bound's log is compared; a positive one clamps to 0.
    PAIRS = ("bernoulli:0.5,0.6", "discrete:0.7,0.2,0.1|0.1,0.3,0.6", "gaussian:2,0.3")

    @staticmethod
    def budgets(pair, n):
        c = 20.0 * kl_divergence(pair, Direction.REVERSE)
        return (math.log(0.01), -math.log(n), -c * n)

    @pytest.mark.parametrize("spec", PAIRS)
    def test_berry_esseen_matches_mpmath(self, spec):
        pair = parse_pair(spec)
        for n in (100, 2000, 10000):
            for log_eps in self.budgets(pair, n):
                r = berry_esseen_bound(pair, n, log_eps)
                want = _mp_berry_esseen(pair, n, log_eps)
                case = (n, log_eps, r.optimizer)
                if want is None:
                    assert (r.value, r.optimizer, r.valid) == (0.0, None, False), case
                    continue
                assert r.log_value == pytest.approx(min(want, 0.0), rel=1e-12, abs=0.0), case

    @pytest.mark.parametrize("spec", ("gaussian:2,0.05", "gaussian:2,0.3", "gaussian:-1,1.5,3"))
    def test_smoothing_matches_mpmath(self, spec):
        pair = parse_pair(spec)
        for n in (100, 2000, 10000):
            for log_eps in self.budgets(pair, n):
                r = smoothing_out_bound(pair, n, log_eps)
                want = _mp_smoothing(pair, n, log_eps)
                case = (n, log_eps, r.optimizer)
                assert r.log_value == pytest.approx(want, rel=1e-12, abs=0.0), case

    def test_smoothing_optimum_at_and_near_lower_end(self):
        # fig2, exponential regime, n = 2000: log(1 - eps) = -e^{-50}, so
        # the slope is negative from t = 1e-9 on and the maximizer is that end.
        pair = parse_pair("gaussian:2,0.05")
        r = smoothing_out_bound(pair, 2000, -50.0)
        assert r.optimizer == 1e-9
        with mpmath.workdps(60):
            want = float(_mp_smoothing_objective(pair, 2000, -50.0)(mpmath.mpf(1e-9)))
        assert r.log_value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert r.log_value == pytest.approx(_mp_smoothing(pair, 2000, -50.0), rel=1e-12, abs=0.0)
        # n = 1070: the optimum t = 3.3e-8 lies just above that end, where
        # a search resolving t to 1e-9 misses the value by 8e-11 relative.
        r = smoothing_out_bound(pair, 1070, -26.75)
        assert 3e-8 < r.optimizer < 4e-8
        assert r.log_value == pytest.approx(_mp_smoothing(pair, 1070, -26.75), rel=1e-12, abs=0.0)

    def test_berry_esseen_vacuous(self):
        # sqrt(n)(1 - eps) <= B: hi <= 0 and no Delta is admissible; an
        # identical pair has no LLR variance to divide by, at any n.
        berry = 6.0 * math.sqrt(8.0 / math.pi)
        same = parse_pair("discrete:0.2,0.3,0.5|0.2,0.3,0.5")
        cases = [(GAUSS, n) for n in (1, 50, int((berry / 0.99) ** 2))] + [(same, 1000)]
        for pair, n in cases:
            r = berry_esseen_bound(pair, n, math.log(0.01))
            assert (r.value, r.log_value, r.optimizer, r.valid) == (0.0, -math.inf, None, False)

    def test_berry_esseen_short_span_is_a_root(self):
        # hi <= 2e-9: Delta is still the root of the slope in (0, hi), about
        # 0.93 hi, where the mid-point hi / 2 is 0.47 nats lower (-26.17
        # against -26.64 at gap 1.5e-9).
        n, berry = 100, 6.0 * math.sqrt(8.0 / math.pi)
        for gap in (1.5e-9, 5e-10):
            log_eps = math.log1p(-(berry + gap) / 10.0)
            hi = 10.0 * -math.expm1(log_eps) - berry
            assert 0.0 < hi <= 2e-9
            r = berry_esseen_bound(GAUSS, n, log_eps)
            assert 0.0 < r.optimizer < hi
            # hi cancels 1 - eps against B, each rounded to about 1e-16, so the
            # Q^{-1} argument (about 1e-10) is off by up to 1e-6 relative and
            # the log value by about 1e-8; the search in log Delta stays
            # below 0.999 hi, inside the 60-digit objective's own interval.
            with mpmath.workdps(60):
                f = _mp_berry_esseen_objective(GAUSS, n, log_eps)
                mid = float(f(mpmath.mpf(0.5 * hi)))
                best = float(_mp_golden(lambda u: f(mpmath.exp(u)), mpmath.log(1e-3 * hi),
                                        mpmath.log(0.999 * hi)))
            assert r.log_value > mid + 0.4
            assert r.log_value == pytest.approx(best, rel=1e-7, abs=0.0)

    def test_berry_esseen_argument_rounding_to_zero_at_zero_slack(self):
        # hi = 1.8e-15 > 0, but the Q^{-1} argument at Delta = 0 rounds to
        # 0: h(0) = 0, the search stops at that end, and the bound is its
        # log there, -inf, not log 0 (a math domain error)
        r = berry_esseen_bound(GAUSS, 85956265, -0.0010332535076927926)
        assert (r.log_value, r.optimizer, r.valid) == (-math.inf, 0.0, False)

    def test_no_grid_search(self):
        for pair in (BERN, GAUSS, parse_pair("discrete:0.7,0.2,0.1|0.1,0.3,0.6")):
            r = berry_esseen_bound(pair, 5000, math.log(0.01))
            assert math.isfinite(r.log_value) and r.optimizer > 1e-9
        assert smoothing_out_bound(GAUSS, 1000, math.log(0.01)).optimizer > 1e-9
