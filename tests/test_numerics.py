"""Tests for the log-domain primitives and the scalar maximizer.

Reference values were computed independently with mpmath at 60 digits
and are pinned to 17 significant figures.
"""

import math

import mpmath
import numpy as np
import pytest

from htbounds.numerics import (
    Bracket,
    DomainError,
    OptimizationError,
    log_diff_exp,
    log_q,
    log_sum_exp,
    maximize_scalar,
    q_function,
    q_inverse,
    q_inverse_log,
)

# Q(2.326348), Q(1.82635), Q^{-1}(0.01)
Q_2326348 = 0.009999996642919077
Q_182635 = 0.033898779108317302
QINV_001 = 2.3263478740408411

# max of ((l-1)/l)(c - l*D) over l > 1 at c = 0.025, D = 0.00125:
# attained at l* = sqrt(c/D) with value (sqrt(c) - sqrt(D))^2
PHASE_LAMBDA = 4.4721359549995794
PHASE_EXPONENT = 0.015069660112501052


def mp_q_root(p, x0):
    """Root of Q(x) = p in 60-digit arithmetic, by Newton from ``x0``."""
    with mpmath.workdps(60):
        p, x = mpmath.mpf(p), mpmath.mpf(x0)
        for _ in range(6):
            x += (mpmath.erfc(x / mpmath.sqrt(2)) / 2 - p) / mpmath.npdf(x)
        return float(x)


class TestQFunction:
    def test_reference_values(self):
        assert q_function(2.326348) == pytest.approx(Q_2326348, rel=1e-14)
        assert q_function(1.82635) == pytest.approx(Q_182635, rel=1e-14)
        assert q_function(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.1, 0.7, 1.5, 3.0):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-15)

    def test_array_input(self):
        out = q_function(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        assert out[0] == 0.5

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            q_function(math.inf)
        with pytest.raises(DomainError):
            q_function(math.nan)


class TestLogQ:
    def test_matches_log_of_q(self):
        for x in (-3.0, 0.0, 1.0, 5.0):
            assert log_q(x) == pytest.approx(math.log(q_function(x)), rel=1e-13)

    def test_deep_tail_stays_finite(self):
        val = log_q(40.0)
        assert math.isfinite(val)
        assert val < -700.0  # past where exp would underflow

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            log_q(math.nan)


class TestQInverse:
    def test_reference_value(self):
        assert q_inverse(0.01) == pytest.approx(QINV_001, rel=1e-13)

    def test_roundtrip(self):
        for p in (1e-300, 1e-15, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.97, 1.0 - 1e-12):
            x = q_inverse(p)
            assert q_function(x) == pytest.approx(p, rel=1e-11, abs=1e-300)

    def test_half_maps_to_zero(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_vector_input(self):
        ps = np.array([0.01, 0.5, 0.99])
        xs = q_inverse(ps)
        assert xs.shape == ps.shape
        assert xs[0] == pytest.approx(-xs[2], abs=1e-12)

    def test_matches_mpmath(self):
        # Upper tail down to 1e-300, the middle, and the lower tail up to
        # 1 - 1e-15, against the exact root of Q(x) = p for the double p.
        ps = np.concatenate(
            [np.geomspace(1e-300, 0.5, 60), [0.3, 0.5, 0.7], 1.0 - np.geomspace(1e-15, 0.5, 30)]
        )
        for p in ps.tolist():
            x = q_inverse(p)
            ref = mp_q_root(p, x)
            assert abs(x - ref) <= 2e-15 * max(abs(ref), 1e-3), p

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                q_inverse(bad)


class TestQInverseLog:
    def test_agrees_with_q_inverse_when_shallow(self):
        for p in (0.01, 0.3, 1e-100):
            assert q_inverse_log(math.log(p)) == pytest.approx(q_inverse(p), rel=1e-12)

    def test_deep_roundtrip(self):
        for lp in (-1e3, -1e4, -1e6):
            x = q_inverse_log(lp)
            assert log_q(x) == pytest.approx(lp, rel=1e-9)

    def test_roundtrip_within_four_ulps_of_log_p(self):
        # An absolute accuracy cannot hold at -1e6, where one ulp of log p
        # is 1.2e-10, so the round trip is measured in ulps of log p.
        # Near 0 the points show that log p is never rounded through
        # exp(log p); deep in the tail, that the Newton polish step is
        # live (ndtri_exp alone is thousands of ulps off at -1e5).
        for lp in (-1e-12, -1e-3, -1.0, -50.0, -690.0, -700.0, -5e3, -1e5, -1e6):
            x = q_inverse_log(lp)
            assert abs(log_q(x) - lp) <= 4 * math.ulp(lp), lp

    def test_log_p_next_to_zero(self):
        # Below about 1e-310, Q / phi overflows, so the Newton step is
        # inf or NaN and must be skipped (-1e-300 still takes it); arrays
        # take the same path element by element.
        lps = np.array([-1e-300, -1e-320, -5e-324])
        xs = q_inverse_log(lps)
        assert np.all(np.isfinite(xs)) and np.all(xs < -37.0)
        assert xs.tolist() == [q_inverse_log(lp) for lp in lps.tolist()]

    def test_domain(self):
        for bad in (0.0, 0.5, math.nan, -math.inf):
            with pytest.raises(DomainError):
                q_inverse_log(bad)


class TestLogSumExp:
    def test_basic(self):
        assert log_sum_exp([math.log(1.0), math.log(2.0)]) == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    def test_extreme_spread(self):
        assert log_sum_exp([-1000.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([700.0, 710.0]) == pytest.approx(
            710.0 + math.log1p(math.exp(-10.0)), rel=1e-14
        )

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_rejects_empty_and_bad(self):
        with pytest.raises(DomainError):
            log_sum_exp([])
        with pytest.raises(DomainError):
            log_sum_exp([0.0, math.inf])
        with pytest.raises(DomainError):
            log_sum_exp([0.0, math.nan])


class TestLogDiffExp:
    def test_basic(self):
        assert log_diff_exp(math.log(3.0), math.log(1.0)) == pytest.approx(
            math.log(2.0), rel=1e-14
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


def scalar_forms(x):
    """``x`` as a Python float, ``np.float64`` and 0-d array, plus an int if integral."""
    forms = [float(x), np.float64(x), np.asarray(x, dtype=float)]
    if float(x).is_integer():
        forms.append(int(x))
    return forms


Q_INVERSE_DOMAIN = "q_inverse requires p in (0, 1)"
LOG_DIFF_NAN = "log_diff_exp requires non-NaN arguments"
LOG_DIFF_ORDER = "log_diff_exp requires a >= b"


class TestScalarFastPaths:
    """Scalar input agrees with a 1-element array by repr, and bad input
    raises the same DomainError text in every form."""

    def test_q_inverse_scalar_equals_array_element(self):
        for p in (1e-300, 1e-15, 0.01, 0.5, 0.97, 1.0 - 1e-15):
            want = q_inverse(np.array([p]))
            assert want.shape == (1,)
            for form in scalar_forms(p):
                got = q_inverse(form)
                assert type(got) is float
                assert repr(got) == repr(float(want[0])), (p, type(form))

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_q_inverse_rejects(self, p):
        for form in scalar_forms(p) + [np.array([p]), np.array([0.5, p])]:
            with pytest.raises(DomainError) as info:
                q_inverse(form)
            assert str(info.value) == Q_INVERSE_DOMAIN

    def test_q_inverse_empty_array(self):
        assert q_inverse(np.array([])).shape == (0,)

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.0, -3.0),
            (math.log(3.0), 0.0),
            (1e-12, 0.0),
            (700.0, -745.0),
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
        want = log_diff_exp(np.array([a]), np.array([b]))
        assert want.shape == (1,)
        for fa in scalar_forms(a):
            for fb in scalar_forms(b):
                got = log_diff_exp(fa, fb)
                assert type(got) is float
                assert repr(got) == repr(float(want[0])), (type(fa), type(fb))

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
        for fa in scalar_forms(a) + [np.array([a])]:
            for fb in scalar_forms(b) + [np.array([b])]:
                with pytest.raises(DomainError) as info:
                    log_diff_exp(fa, fb)
                assert str(info.value) == message

    def test_log_diff_exp_empty_arrays(self):
        assert log_diff_exp(np.array([]), np.array([])).shape == (0,)


class TestBracket:
    def test_validation(self):
        with pytest.raises(DomainError):
            Bracket(1.0, 1.0)
        with pytest.raises(DomainError):
            Bracket(2.0, 1.0)
        with pytest.raises(DomainError):
            Bracket(0.0, 1.0, tolerance=0.0)


class TestMaximizeScalar:
    def test_quadratic_bounded(self):
        arg, val = maximize_scalar(lambda x: -((x - 3.0) ** 2), Bracket(1.0, 100.0))
        assert arg == pytest.approx(3.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_unbounded_bracket(self):
        arg, val = maximize_scalar(lambda x: -((x - 3.0) ** 2), Bracket(1.0, math.inf))
        assert arg == pytest.approx(3.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_phase_objective(self):
        c, d = 0.025, 0.00125

        def f(lam):
            return ((lam - 1.0) / lam) * (c - lam * d)

        arg, val = maximize_scalar(f, Bracket(1.0, math.inf))
        assert arg == pytest.approx(PHASE_LAMBDA, rel=1e-6)
        assert val == pytest.approx(PHASE_EXPONENT, rel=1e-9)

    def test_decreasing_pins_lower_edge(self):
        arg, val = maximize_scalar(lambda x: -x, Bracket(0.0, 10.0))
        assert arg <= 1e-6
        assert val >= -1e-6

    def test_increasing_hits_expansion_cap(self):
        # log grows forever, so the geometric expansion stops at its cap
        # and the maximum lands near lo + 1e6.
        arg, val = maximize_scalar(np.log, Bracket(1.0, math.inf))
        assert arg > 9e5
        assert val == pytest.approx(math.log(arg), rel=1e-12)

    def test_scalar_fallback_matches_vectorized(self):
        def vectorized(x):
            return -((x - 3.0) ** 2)

        def scalar_only(x):
            return -((float(x) - 3.0) ** 2)  # float() raises on arrays

        av, vv = maximize_scalar(vectorized, Bracket(1.0, 100.0))
        as_, vs = maximize_scalar(scalar_only, Bracket(1.0, 100.0))
        assert as_ == pytest.approx(av, abs=1e-9)
        assert vs == pytest.approx(vv, abs=1e-12)

    def test_nan_treated_as_neg_inf(self):
        def f(x):
            return np.where(x < 2.0, -((x - 1.5) ** 2), math.nan)

        arg, val = maximize_scalar(f, Bracket(1.0, 100.0))
        assert arg == pytest.approx(1.5, abs=1e-6)

    def test_mostly_nonfinite_raises_with_last_value(self):
        def f(x):
            return np.where(x >= 0.99, 1.0, math.nan)

        with pytest.raises(OptimizationError) as exc:
            maximize_scalar(f, Bracket(0.0, 1.0))
        assert exc.value.last_value == 1.0

    def test_all_nonfinite_raises_with_none(self):
        with pytest.raises(OptimizationError) as exc:
            maximize_scalar(lambda x: math.nan, Bracket(0.0, 1.0))
        assert exc.value.last_value is None

    def test_value_never_below_grid_max(self):
        # A rough multimodal objective: returned value must be >= every
        # probe of a fresh coarse scan.
        def f(x):
            return np.sin(x) + 0.1 * np.sin(7.0 * x)

        arg, val = maximize_scalar(f, Bracket(0.0, 10.0))
        probes = np.linspace(0.01, 9.99, 500)
        assert val >= float(np.max(f(probes))) - 1e-6
