"""Tests for the scalar log-domain primitives and the reference scan maximizer.

Reference values were computed independently with mpmath at 50 or 60
digits and are pinned to 17 significant figures.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import special

from htbounds.numerics import (
    _ROOT_CAP,
    DomainError,
    _newton_root,
    log_diff_exp,
    log_q,
    q_inverse,
    q_inverse_log,
)
from scanpolish import scan_polish_argmax
from shared import PHASE_LAMBDA, scalar_forms

# Q(2.326348), Q(1.82635), Q^{-1}(0.01)
Q_2326348 = 0.009999996642919077
Q_182635 = 0.033898779108317302
QINV_001 = 2.3263478740408411

# the value (sqrt(c) - sqrt(D))^2 of the maximum at PHASE_LAMBDA
PHASE_EXPONENT = 0.015069660112501052


def _mp_log_q(x):
    """log Q(x) at the working precision, as log1p(-Q(-x)) below 0."""
    x = mpmath.mpf(x)
    tail = mpmath.erfc(abs(x) / mpmath.sqrt(2)) / 2
    return mpmath.log1p(-tail) if x < 0 else mpmath.log(tail)


def mp_log_q(x):
    """log Q(x) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        return float(_mp_log_q(x))


def mp_log_q_root(log_p, x0):
    """Root of log Q(x) = log_p in 50-digit arithmetic, by Newton from ``x0``.

    ``log_p`` is a float, or an mpf such as the log of a double p formed
    at 50 digits, whose root is the exact Q^{-1}(p).
    """
    with mpmath.workdps(50):
        log_p, x = mpmath.mpf(log_p), mpmath.mpf(x0)
        for _ in range(8):
            lq = _mp_log_q(x)
            x += (lq - log_p) * mpmath.exp(lq) / mpmath.npdf(x)
        return float(x)


# mp_log_q(x): both branches of erfc, both sides of the series at x = 37,
# and the series far out
MP_LOG_Q = {
    -30.0: -4.906713927148187e-198,
    -8.0: -6.220960574271786e-16,
    -1.0: -0.17275377902344988,
    0.0: -0.6931471805599453,
    0.5: -1.1759117615936185,
    1.0: -1.8410216450092636,
    2.326348: -4.605170521696239,
    5.0: -15.064998393988725,
    20.0: -203.91715537109727,
    36.99: -688.6603656636589,
    37.0: -689.0305855768906,
    37.5: -707.6689893175072,
    40.0: -804.6084420137538,
    1e3: -500007.82669481216,
    1e6: -500000000014.73444,
}

# mp_log_q_root(log p, q_inverse(p)), log p at 50 digits
MP_Q_INVERSE = {
    1e-300: 37.0470962993612,
    1e-100: 21.273453560965326,
    1e-15: 7.941345326170997,
    1e-6: 4.753424308822899,
    0.01: 2.326347874040841,
    0.3: 0.5244005127080408,
    0.7: -0.5244005127080407,
    0.99: -2.3263478740408408,
    1.0 - 1e-12: -7.0344869100478356,
}


def q(x):
    """Q(x) = P(Z >= x), through its one public form exp(log_q(x))."""
    return math.exp(log_q(x))


class TestQFunction:
    def test_reference_values(self):
        assert q(2.326348) == pytest.approx(Q_2326348, rel=1e-14, abs=0.0)
        assert q(1.82635) == pytest.approx(Q_182635, rel=1e-14, abs=0.0)
        assert q(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.1, 0.7, 1.5, 3.0):
            assert q(x) + q(-x) == pytest.approx(1.0, abs=1e-15)

    def test_array_input(self):
        for arr in (np.asarray(0.0), np.array([0.0]), np.array([0.0, 1.0])):
            with pytest.raises(DomainError) as info:
                q(arr)
            assert str(info.value) == "log_q requires finite input"

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            q(math.inf)
        with pytest.raises(DomainError):
            q(math.nan)


class TestLogQ:
    def test_matches_log_of_q(self):
        # log Q(x) = log_ndtr(-x), scipy's implementation, which log_q does not share
        for x in (-3.0, 0.0, 1.0, 5.0, 37.0, 50.0):
            assert log_q(x) == pytest.approx(special.log_ndtr(-x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", list(MP_LOG_Q))
    def test_matches_mpmath(self, x):
        assert log_q(x) == pytest.approx(MP_LOG_Q[x], rel=1e-15, abs=0.0)

    def test_frozen_references_match_their_generator(self):
        # one row of MP_LOG_Q recomputed; x = 37.5 is on the series branch
        assert mp_log_q(37.5) == pytest.approx(MP_LOG_Q[37.5], rel=1e-15, abs=0.0)

    def test_below_the_float_range(self):
        # -x^2/2 fits a double up to x = 1.9e154; past it log Q is -inf, and
        # far below 0, Q(-x) underflows, so log Q is -0.0
        assert log_q(1.8e154) == pytest.approx(-1.62e308, rel=1e-15, abs=0.0)
        assert log_q(2e154) == -math.inf
        assert log_q(1e300) == -math.inf
        for x in (-40.0, -1e300):
            assert repr(log_q(x)) == "-0.0"

    def test_deep_tail_stays_finite(self):
        val = log_q(40.0)
        assert math.isfinite(val)
        assert val < -700.0  # past where exp would underflow

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, np.array([1.0])):
            with pytest.raises(DomainError):
                log_q(bad)


class TestQInverse:
    def test_reference_value(self):
        assert q_inverse(0.01) == pytest.approx(QINV_001, rel=1e-13, abs=0.0)

    def test_roundtrip(self):
        for p in (1e-300, 1e-15, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.97, 1.0 - 1e-12):
            x = q_inverse(p)
            assert special.ndtr(-x) == pytest.approx(p, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("p", list(MP_Q_INVERSE))
    def test_matches_mpmath_references(self, p):
        assert q_inverse(p) == pytest.approx(MP_Q_INVERSE[p], rel=1e-15, abs=0.0)

    def test_frozen_references_match_their_generator(self):
        # one row of MP_Q_INVERSE recomputed
        with mpmath.workdps(50):
            want = mp_log_q_root(mpmath.log(1e-300), q_inverse(1e-300))
        assert want == pytest.approx(MP_Q_INVERSE[1e-300], rel=1e-15, abs=0.0)

    def test_half_maps_to_zero(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_vector_input(self):
        with pytest.raises(DomainError) as info:
            q_inverse(np.array([0.01, 0.5, 0.99]))
        assert str(info.value) == Q_INVERSE_DOMAIN

    def test_matches_mpmath(self):
        # Upper tail down to 1e-300, the middle, and the lower tail up to
        # 1 - 1e-15, against the exact root of Q(x) = p for the double p.
        ps = np.concatenate(
            [np.geomspace(1e-300, 0.5, 60), [0.3, 0.5, 0.7], 1.0 - np.geomspace(1e-15, 0.5, 30)]
        )
        for p in ps.tolist():
            x = q_inverse(p)
            with mpmath.workdps(50):
                ref = mp_log_q_root(mpmath.log(p), x)
            assert abs(x - ref) <= 2e-15 * max(abs(ref), 1e-3), p

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                q_inverse(bad)


class TestQInverseLog:
    def test_agrees_with_q_inverse_when_shallow(self):
        for p in (0.01, 0.3, 1e-100):
            assert q_inverse_log(math.log(p)) == pytest.approx(q_inverse(p), rel=1e-12, abs=0.0)

    def test_deep_roundtrip(self):
        for lp in (-1e3, -1e4, -1e6):
            x = q_inverse_log(lp)
            assert log_q(x) == pytest.approx(lp, rel=1e-9)

    def test_roundtrip_within_four_ulps_of_log_p(self):
        # An absolute accuracy cannot hold at -1e6, where one ulp of log p
        # is 1.2e-10, so the round trip is measured in ulps of log p.
        # Near 0 the point shows that log p is never rounded through
        # exp(log p); deep in the tail, that the Newton steps are live (the
        # series start is about 1e-3 relative off at -1e5).
        for lp in (-1e-3, -1.0, -50.0, -690.0, -700.0, -5e3, -1e5, -1e6):
            x = q_inverse_log(lp)
            assert abs(log_q(x) - lp) <= 4 * math.ulp(lp), lp

    def test_nearest_double_next_to_zero(self):
        # At log p = -1e-12 neighbouring doubles x move log Q by about 31
        # ulps of log p, so no x is within 4 of them; the best double is 8
        # ulps off, and it is the one returned.
        x = q_inverse_log(-1e-12)
        assert x == mp_log_q_root(-1e-12, x)

    def test_log_p_next_to_zero(self):
        # Below about 1e-310, Q / phi overflows, so the Newton step is
        # inf or NaN and must be skipped (-1e-300 still takes it).
        for lp in (-1e-300, -1e-320, -5e-324):
            x = q_inverse_log(lp)
            assert math.isfinite(x) and x < -37.0, lp

    def test_answers_down_to_the_largest_float(self):
        # u = -2 log p overflows below -8.99e307, so the start is formed in u/4;
        # this deep in the tail x is sqrt(u) to about 1e-305 relative
        for lp in (-1e308, -sys.float_info.max):
            assert q_inverse_log(lp) == pytest.approx(math.sqrt(2.0) * math.sqrt(-lp),
                                                      rel=1e-15, abs=0.0)

    def test_domain(self):
        for bad in (0.0, 0.5, math.nan, -math.inf, np.array([-1.0])):
            with pytest.raises(DomainError):
                q_inverse_log(bad)


class TestLogDiffExp:
    def test_basic(self):
        assert log_diff_exp(math.log(3.0), math.log(1.0)) == pytest.approx(
            math.log(2.0), rel=1e-14, abs=0.0
        )

    def test_near_cancellation(self):
        # exp(a) - exp(b) with a - b = 1e-12: answer ~ log(1e-12)
        assert log_diff_exp(1e-12, 0.0) == pytest.approx(math.log(1e-12), rel=1e-3)

    def test_equal_gives_neg_inf(self):
        assert log_diff_exp(1.5, 1.5) == -math.inf
        assert log_diff_exp(-math.inf, -math.inf) == -math.inf

    def test_rejects_b_above_a(self):
        with pytest.raises(DomainError):
            log_diff_exp(0.0, 1.0)
        with pytest.raises(DomainError):
            log_diff_exp(math.nan, 0.0)

    @pytest.mark.parametrize("b", [-1e-300, -1e-100, -1e-12, -1.29e-8, -0.5, -0.6931471805599452,
                                   -0.6931471805599453, -0.6931471805599454, -0.7, -1.0, -5.0,
                                   -40.0, -700.0, -708.5, -745.0])
    def test_matches_mpmath_near_and_far(self, b):
        # log(1 - e^b) on both sides of b = -log 2: log(-expm1(b)) keeps it
        # exact as b -> 0, where log1p(-exp(b)) lost 1.7e-10 relative at
        # b = -1.29e-8 and 8e-7 at b = -1e-12; the subnormal results past
        # b = -708.4 are exact too, as log1p(-y) = -y there.
        with mpmath.workdps(60):
            x = mpmath.mpf(b)
            want = float(mpmath.log(-mpmath.expm1(x)) if b > -1.0 else mpmath.log1p(-mpmath.exp(x)))
        assert log_diff_exp(0.0, b) == pytest.approx(want, rel=4e-16, abs=0.0)

    # Special cases and argument types, pinned by repr: equal arguments give
    # -inf, and (inf, inf) gives nan, as inf - inf does.
    @pytest.mark.parametrize("a, b, want", [
        (1.5, 1.5, "-inf"), (3, 3, "-inf"), (0.0, -0.0, "-inf"),
        (-math.inf, -math.inf, "-inf"), (math.inf, math.inf, "nan"),
        (math.inf, 0.0, "inf"), (math.inf, -math.inf, "inf"), (0.0, -math.inf, "0.0"),
        (-1.0, -math.inf, "-1.0"), (1e308, -1e308, "1e+308"), (700.0, -745.0, "700.0"),
        (3, 1, "2.854586542131141"), (0, -1, "-0.45867514538708193"),
        (np.float64(0.0), np.float64(-1.0), "-0.45867514538708193"),
        (np.float64(2.5), 1, "2.2475175410745463"), (0.0, -5e-324, "-744.4400719213812"),
        (-745.0, -746.0, "-745.4586751453871"),
    ])
    def test_special_cases(self, a, b, want):
        got = log_diff_exp(a, b)
        assert type(got) is float and repr(got) == want


Q_INVERSE_DOMAIN = "q_inverse requires p in (0, 1)"
LOG_DIFF_NAN = "log_diff_exp requires non-NaN arguments"
LOG_DIFF_ORDER = "log_diff_exp requires a >= b"


def array_forms(x):
    """``x`` as a 0-d, a 1-element and a 2-element array, none of them accepted."""
    return [np.asarray(x, dtype=float), np.array([x]), np.array([0.5, x])]


class TestScalarFastPaths:
    """Every scalar form of an argument gives the bits of its float form as
    a plain float, bad input raises the same DomainError text in every
    form, and arrays are refused."""

    def test_q_inverse_scalar_equals_array_element(self):
        for p in (1e-300, 1e-15, 0.01, 0.5, 0.97, 1.0 - 1e-15):
            want = q_inverse(float(p))
            for form in scalar_forms(p):
                got = q_inverse(form)
                assert type(got) is float
                assert repr(got) == repr(want), (p, type(form))

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_q_inverse_rejects(self, p):
        for form in scalar_forms(p) + array_forms(p):
            with pytest.raises(DomainError) as info:
                q_inverse(form)
            assert str(info.value) == Q_INVERSE_DOMAIN

    def test_q_inverse_empty_array(self):
        with pytest.raises(DomainError) as info:
            q_inverse(np.array([]))
        assert str(info.value) == Q_INVERSE_DOMAIN

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.0, -3.0),
            (math.log(3.0), 0.0),
            (1e-12, 0.0),
            (700.0, -745.0),
            (1e308, -1e308),
            (2.0, 1.0),
            (0.0, -math.inf),
            (math.inf, 0.0),
            (1.5, 1.5),
            (0.0, -0.0),
            (-math.inf, -math.inf),
            (math.inf, math.inf),
        ],
    )
    def test_log_diff_exp_scalar_equals_array_element(self, a, b):
        want = log_diff_exp(a, b)
        for fa in scalar_forms(a):
            for fb in scalar_forms(b):
                got = log_diff_exp(fa, fb)
                assert type(got) is float
                assert repr(got) == repr(want), (type(fa), type(fb))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (math.nan, 0.0, LOG_DIFF_NAN),
            (0.0, math.nan, LOG_DIFF_NAN),
            (math.nan, math.inf, LOG_DIFF_NAN),
            (0.0, 1.0, LOG_DIFF_ORDER),
            (-math.inf, 0.0, LOG_DIFF_ORDER),
            (0.0, math.inf, LOG_DIFF_ORDER),
        ],
    )
    def test_log_diff_exp_rejects(self, a, b, message):
        for fa in scalar_forms(a):
            for fb in scalar_forms(b):
                with pytest.raises(DomainError) as info:
                    log_diff_exp(fa, fb)
                assert str(info.value) == message

    def test_log_diff_exp_empty_arrays(self):
        # an array in either place, empty or not, fails the first check
        for arr in [np.array([])] + array_forms(-1.0):
            for a, b in ((arr, -2.0), (0.0, arr), (arr, arr)):
                with pytest.raises(DomainError) as info:
                    log_diff_exp(a, b)
                assert str(info.value) == LOG_DIFF_NAN


class TestNewtonRoot:
    def test_unbounded_search_stops_at_a_finite_point(self):
        # The sign change lies at x = 1e20, beyond origin + 2^40: the search
        # quadruples the offset past 2^40 and returns that point and its
        # extra, never an infinite root.
        origin = 1.0

        def f(x):
            return 1e20 - x, -1.0, 1e20 + x, ("extra at", x)

        x, extra = _newton_root(f, origin, math.inf, 2.0, origin)
        assert _ROOT_CAP < x - origin <= 4.0 * _ROOT_CAP
        assert extra == ("extra at", x)


class TestMaximizeScalar:
    """The scan-and-polish maximizer that the bound tests use as reference."""

    def test_quadratic_bounded(self):
        arg, val = scan_polish_argmax(lambda x: -((x - 3.0) ** 2), 1.0, 100.0)
        assert arg == pytest.approx(3.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_unbounded_bracket(self):
        arg, val = scan_polish_argmax(lambda x: -((x - 3.0) ** 2), 1.0, math.inf)
        assert arg == pytest.approx(3.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_phase_objective(self):
        c, d = 0.025, 0.00125

        def f(lam):
            return ((lam - 1.0) / lam) * (c - lam * d)

        arg, val = scan_polish_argmax(f, 1.0, math.inf)
        assert arg == pytest.approx(PHASE_LAMBDA, rel=1e-6)
        assert val == pytest.approx(PHASE_EXPONENT, rel=1e-9)

    def test_decreasing_pins_lower_edge(self):
        arg, val = scan_polish_argmax(lambda x: -x, 0.0, 10.0)
        assert arg <= 1e-6
        assert val >= -1e-6

    def test_increasing_hits_expansion_cap(self):
        # log grows forever, so an unbounded span stops at its 1e6 cap
        # and the maximum lands near lo + 1e6.
        arg, val = scan_polish_argmax(np.log, 1.0, math.inf)
        assert arg > 9e5
        assert val == pytest.approx(math.log(arg), rel=1e-12)

    def test_nan_treated_as_neg_inf(self):
        def f(x):
            return np.where(x < 2.0, -((x - 1.5) ** 2), math.nan)

        arg, val = scan_polish_argmax(f, 1.0, 100.0)
        assert arg == pytest.approx(1.5, abs=1e-6)

    def test_value_never_below_grid_max(self):
        # A rough multimodal objective: returned value must be >= every
        # probe of a fresh coarse scan.
        def f(x):
            return np.sin(x) + 0.1 * np.sin(7.0 * x)

        arg, val = scan_polish_argmax(f, 0.0, 10.0)
        probes = np.linspace(0.01, 9.99, 500)
        assert val >= float(np.max(f(probes))) - 1e-6
