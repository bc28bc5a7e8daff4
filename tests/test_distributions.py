"""Tests for distribution pairs, divergences, and the pair grammar.

Reference divergence and moment values are from an independent mpmath
computation at 60 digits, pinned to 17 significant figures, or formed at
60 digits in the test on the pair's atoms, each vector scaled to sum to
exactly 1 as the library documents.
"""

import math

import mpmath
import numpy as np
import pytest

from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    PairSpecError,
    UnsupportedFamilyError,
    _tilt_atoms,
    hellinger_squared,
    kl_divergence,
    llr_moments,
    parse_pair,
    renyi_divergence,
)
from htbounds.numerics import DomainError

BERN = BernoulliPair(0.5, 0.51)
BERN06 = BernoulliPair(0.5, 0.6)
GAUSS = GaussianPair(2.0, 0.05, 1.0)

# Bernoulli(0.5) vs Bernoulli(0.51)
BERN_KL_FWD = 0.00020004001066986769
BERN_KL_REV = 0.00020001333546712392
BERN_D2_REV = 0.00039992002132693538
BERN_H2 = 5.0006251312835251e-5
BERN_LLR_VAR = 0.00040010669938850906
BERN_LLR_T3 = 8.0032011951100233e-6
# Bernoulli(0.5) vs Bernoulli(0.6)
BERN06_KL_REV = 0.020135513550688873
# Gaussian mu=2, delta=0.05, sigma=1
GAUSS_H2 = 0.00031245117696086568
GAUSS_T3 = 0.00019947114020071634
GAUSS_B = 9.5746147296343843


class TestConstructors:
    def test_bernoulli_validation(self):
        with pytest.raises(DomainError):
            BernoulliPair(0.0, 0.5)
        with pytest.raises(DomainError):
            BernoulliPair(0.5, 1.0)
        with pytest.raises(DomainError):
            BernoulliPair(0.3, 0.3)

    def test_gaussian_validation(self):
        with pytest.raises(DomainError):
            GaussianPair(0.0, 0.0)
        with pytest.raises(DomainError):
            GaussianPair(0.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            GaussianPair(math.inf, 0.1)
        assert GaussianPair(0.0, -0.3).sigma == 1.0

    def test_discrete_validation(self):
        with pytest.raises(DomainError):
            FiniteDiscretePair((0.5, 0.5), (0.2, 0.3, 0.5))
        with pytest.raises(DomainError):
            FiniteDiscretePair((1.0,), (1.0,))
        with pytest.raises(DomainError):
            FiniteDiscretePair((0.6, 0.39), (0.5, 0.5))  # does not sum to 1
        with pytest.raises(DomainError):
            FiniteDiscretePair((0.5, 0.5, 0.0), (0.2, 0.3, 0.5))  # support mismatch
        with pytest.raises(DomainError):
            FiniteDiscretePair((0.5, 0.5), (-0.1, 1.1))

    def test_discrete_identical_allowed(self):
        pair = FiniteDiscretePair((0.3, 0.7), (0.3, 0.7))
        assert kl_divergence(pair, Direction.FORWARD) == pytest.approx(0.0, abs=1e-15)

    def test_discrete_coerces_to_float_tuples(self):
        pair = FiniteDiscretePair((1, 0, 0, 0), (1, 0, 0, 0))
        assert pair.p0 == (1.0, 0.0, 0.0, 0.0)


def mp_atoms(pair, direction):
    """The pair's float atoms as mpmath numbers, first argument first.

    Each vector is scaled to sum to exactly 1: 0.999 + 0.001 is not 1 in
    exact arithmetic on the floats.
    """
    if isinstance(pair, BernoulliPair):
        p0, p1 = (1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1)
    else:
        p0, p1 = pair.p0, pair.p1
    with mpmath.workdps(60):
        p = [mpmath.mpf(v) / mpmath.fsum(p0) for v in p0]
        q = [mpmath.mpf(v) / mpmath.fsum(p1) for v in p1]
    return (p, q) if direction is Direction.FORWARD else (q, p)


# Pairs near each other (0.5 vs 0.51, where log p - log q cancels), apart,
# and with a tiny atom, plus the K = 3 and K = 4 pairs of TestRenyi.
MP_SPECS = (
    "bernoulli:0.5,0.51",
    "bernoulli:0.3,0.2",
    "discrete:0.999,0.001|0.998,0.002",
    "discrete:0.2,0.3,0.5|0.4,0.4,0.2",
    "discrete:0.1,0.2,0.3,0.4|0.25,0.25,0.25,0.25",
)


@pytest.mark.parametrize("spec", MP_SPECS)
class TestMpmathReferences:
    """KL, Hellinger and the LLR moments within 1e-14 relative of 60 digits."""

    def test_kl_both_directions(self, spec):
        pair = parse_pair(spec)
        for direction in Direction:
            p, q = mp_atoms(pair, direction)
            with mpmath.workdps(60):
                want = float(mpmath.fsum(a * mpmath.log(a / b) for a, b in zip(p, q)))
            got = kl_divergence(pair, direction)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), direction

    def test_hellinger(self, spec):
        pair = parse_pair(spec)
        p, q = mp_atoms(pair, Direction.FORWARD)
        with mpmath.workdps(60):
            want = float(1 - mpmath.fsum(mpmath.sqrt(a * b) for a, b in zip(p, q)))
        assert hellinger_squared(pair) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_llr_moments(self, spec):
        pair = parse_pair(spec)
        p, q = mp_atoms(pair, Direction.FORWARD)
        with mpmath.workdps(60):
            z = [mpmath.log(a / b) for a, b in zip(p, q)]
            mean = mpmath.fsum(a * x for a, x in zip(p, z))
            var = mpmath.fsum(a * (x - mean) ** 2 for a, x in zip(p, z))
            third = mpmath.fsum(a * abs(x - mean) ** 3 for a, x in zip(p, z))
        m = llr_moments(pair)
        assert m.mean == pytest.approx(float(mean), rel=1e-14, abs=0.0)
        assert m.variance == pytest.approx(float(var), rel=1e-14, abs=0.0)
        assert m.third_abs_central == pytest.approx(float(third), rel=1e-14, abs=0.0)


class TestKL:
    def test_bernoulli_reference(self):
        for pair, direction, want in ((BERN, Direction.FORWARD, BERN_KL_FWD),
                                      (BERN, Direction.REVERSE, BERN_KL_REV),
                                      (BERN06, Direction.REVERSE, BERN06_KL_REV)):
            got = kl_divergence(pair, direction)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (pair, direction)

    def test_gaussian_closed_form(self):
        assert kl_divergence(GAUSS, Direction.FORWARD) == pytest.approx(0.00125, rel=1e-15, abs=0.0)
        assert kl_divergence(GAUSS, Direction.REVERSE) == pytest.approx(0.00125, rel=1e-15, abs=0.0)
        scaled = GaussianPair(-1.0, 1.0, 2.0)  # delta/sigma = 0.5
        assert kl_divergence(scaled, Direction.FORWARD) == pytest.approx(0.125, rel=1e-15, abs=0.0)

    def test_discrete_matches_bernoulli(self):
        pair = FiniteDiscretePair((0.5, 0.5), (0.49, 0.51))
        got = kl_divergence(pair, Direction.FORWARD)
        assert got == pytest.approx(BERN_KL_FWD, rel=1e-12, abs=0.0)


class TestRenyi:
    def test_bernoulli_reference(self):
        assert renyi_divergence(BERN, 2.0, Direction.REVERSE) == pytest.approx(
            BERN_D2_REV, rel=1e-12, abs=0.0
        )

    def test_gaussian_linear_in_lambda(self):
        for lam in (0.3, 0.5, 2.0, 7.0):
            assert renyi_divergence(GAUSS, lam, Direction.FORWARD) == pytest.approx(
                lam * 0.00125, rel=1e-13, abs=0.0
            )

    def test_array_matches_scalar(self):
        lams = np.array([0.3, 0.9, 1.5, 4.0])
        arr = renyi_divergence(BERN, lams, Direction.FORWARD)
        for lam, v in zip(lams, arr):
            want = renyi_divergence(BERN, float(lam), Direction.FORWARD)
            assert v == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_monotone_in_lambda(self):
        vals = [renyi_divergence(BERN06, lam, Direction.FORWARD) for lam in (0.2, 0.6, 1.5, 3.0, 10.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bernoulli_bounded_as_lambda_grows(self):
        # For discrete pairs D_lambda tends to the largest log ratio, so it
        # stays bounded; here log(0.5/0.4) under REVERSE order.
        cap = math.log(0.6 / 0.5)
        assert renyi_divergence(BERN06, 1e5, Direction.REVERSE) < cap + 1e-6

    def test_matches_mpmath(self):
        # Orders log-spaced towards 0, towards 1 from both sides, and out
        # to 1 + 1e6, within a flat 1e-13 relative: the tilted log-sum is
        # an expansion about lambda = 0 and about lambda = 1, so it keeps
        # its accuracy towards both.
        specs = (
            "bernoulli:0.5,0.51",
            "discrete:0.3,0.7|0.6,0.4",
            "discrete:0.999,0.001|0.998,0.002",
            "discrete:0.2,0.3,0.5|0.4,0.4,0.2",
            "discrete:0.1,0.2,0.3,0.4|0.25,0.25,0.25,0.25",
        )
        lams = np.concatenate(
            [
                np.geomspace(1e-9, 0.5, 12),
                1.0 - np.geomspace(1e-9, 0.5, 12),
                1.0 + np.geomspace(1e-9, 1e6, 20),
            ]
        )
        for spec in specs:
            pair = parse_pair(spec)
            for direction in Direction:
                p, q = mp_atoms(pair, direction)
                got = renyi_divergence(pair, lams, direction)
                for lam, vec in zip(lams.tolist(), got.tolist()):
                    with mpmath.workdps(60):
                        lam_mp = mpmath.mpf(lam)
                        s = mpmath.fsum(a**lam_mp * b ** (1 - lam_mp) for a, b in zip(p, q))
                        ref = float(mpmath.log(s) / (lam_mp - 1))
                    scalar = renyi_divergence(pair, lam, direction)
                    for val in (vec, scalar):
                        assert abs(val - ref) <= 1e-13 * abs(ref), (spec, direction, lam)

    def test_lambda_validation(self):
        for bad in (1.0, 0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                renyi_divergence(BERN, bad, Direction.FORWARD)
        with pytest.raises(DomainError):
            renyi_divergence(BERN, np.array([0.5, 1.0]), Direction.FORWARD)


def scalar_forms(x):
    """``x`` as a Python float, ``np.float64`` and 0-d array, plus an int if integral."""
    forms = [float(x), np.float64(x), np.asarray(x, dtype=float)]
    if float(x).is_integer():
        forms.append(int(x))
    return forms


LAMBDA_FINITE = "renyi_divergence requires finite lambda"
LAMBDA_POSITIVE = "renyi_divergence requires lambda > 0"
LAMBDA_KL = "lambda = 1 is the KL limit; use kl_divergence"
K3 = FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))


class TestRenyiFastPath:
    """Scalar lambda agrees with a 1-element array by repr, and a bad
    lambda raises the same DomainError text in every form."""

    @pytest.mark.parametrize("pair", [BERN06, K3, GAUSS], ids=["bernoulli", "K3", "gaussian"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_scalar_equals_array_element(self, pair, direction):
        for lam in (1e-9, 0.3, 0.999, 1.001, 2.0, 7.0, 1e6):
            want = renyi_divergence(pair, np.array([lam]), direction)
            assert want.shape == (1,)
            for form in scalar_forms(lam):
                got = renyi_divergence(pair, form, direction)
                assert type(got) is float
                assert repr(got) == repr(float(want[0])), (lam, type(form))

    @pytest.mark.parametrize(
        "lam, message",
        [
            (math.nan, LAMBDA_FINITE),
            (math.inf, LAMBDA_FINITE),
            (-math.inf, LAMBDA_FINITE),
            (0.0, LAMBDA_POSITIVE),
            (-0.0, LAMBDA_POSITIVE),
            (-2.0, LAMBDA_POSITIVE),
            (1.0, LAMBDA_KL),
        ],
    )
    def test_bad_lambda_message(self, lam, message):
        for pair in (BERN06, GAUSS):
            for form in scalar_forms(lam) + [np.array([lam]), np.array([0.5, lam])]:
                with pytest.raises(DomainError) as info:
                    renyi_divergence(pair, form, Direction.FORWARD)
                assert str(info.value) == message

    def test_array_reports_first_failing_check(self):
        cases = [
            (np.array([]), LAMBDA_FINITE),
            (np.array([1.0, -1.0, math.nan]), LAMBDA_FINITE),
            (np.array([1.0, -1.0]), LAMBDA_POSITIVE),
            (np.array([[0.5, 2.0], [1.0, 3.0]]), LAMBDA_KL),
        ]
        for lam, message in cases:
            with pytest.raises(DomainError) as info:
                renyi_divergence(BERN06, lam, Direction.FORWARD)
            assert str(info.value) == message


class TestAtomCache:
    """White-box checks of the per-(pair, direction) cache in _tilt_atoms."""

    def test_atoms_are_read_only(self):
        before = renyi_divergence(K3, 2.5, Direction.FORWARD)
        atoms = _tilt_atoms(K3, Direction.FORWARD)
        for arr in (atoms.logp, atoms.p, atoms.q, atoms.z):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert repr(renyi_divergence(K3, 2.5, Direction.FORWARD)) == repr(before)

    def test_equal_pairs_give_identical_divergences(self):
        a = FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))
        b = FiniteDiscretePair([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        assert a == b and a is not b
        for direction in Direction:
            for lam in (0.4, 3.0):
                assert repr(renyi_divergence(a, lam, direction)) == repr(
                    renyi_divergence(b, lam, direction)
                )

    def test_directions_stay_distinct(self):
        _tilt_atoms.cache_clear()
        pair = BernoulliPair(0.1, 0.35)
        fwd = [renyi_divergence(pair, lam, Direction.FORWARD) for lam in (0.3, 2.0)]
        rev = [renyi_divergence(pair, lam, Direction.REVERSE) for lam in (0.3, 2.0)]
        assert fwd[0] != rev[0] and fwd[1] != rev[1]
        fwd_atoms = _tilt_atoms(pair, Direction.FORWARD)
        rev_atoms = _tilt_atoms(pair, Direction.REVERSE)
        assert fwd_atoms.p.tolist() == rev_atoms.q.tolist()
        assert fwd_atoms.q.tolist() == rev_atoms.p.tolist()
        # From a cold cache the order of first use does not matter.
        _tilt_atoms.cache_clear()
        assert [renyi_divergence(pair, lam, Direction.REVERSE) for lam in (0.3, 2.0)] == rev
        assert [renyi_divergence(pair, lam, Direction.FORWARD) for lam in (0.3, 2.0)] == fwd

    def test_unsupported_atoms(self):
        with pytest.raises(UnsupportedFamilyError):
            _tilt_atoms(GAUSS, Direction.FORWARD)

    def test_cache_stays_bounded(self):
        for i in range(1000):
            renyi_divergence(BernoulliPair(0.5, 0.1 + 0.3 * i / 1000), 2.0, Direction.FORWARD)
        info = _tilt_atoms.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestHellinger:
    def test_reference_values(self):
        assert hellinger_squared(BERN) == pytest.approx(BERN_H2, rel=1e-11, abs=0.0)
        assert hellinger_squared(GAUSS) == pytest.approx(GAUSS_H2, rel=1e-12, abs=0.0)

    def test_direct_sum_agreement(self):
        direct = 1.0 - (
            math.sqrt(0.5 * 0.4) + math.sqrt(0.5 * 0.6)
        )
        assert hellinger_squared(BERN06) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_range(self):
        assert 0.0 < hellinger_squared(BERN) < 1.0
        far = FiniteDiscretePair((0.999, 0.001), (0.001, 0.999))
        assert 0.5 < hellinger_squared(far) < 1.0


class TestLLRMoments:
    def test_bernoulli_reference(self):
        m = llr_moments(BERN)
        assert m.mean == pytest.approx(BERN_KL_FWD, rel=1e-12, abs=0.0)
        assert m.variance == pytest.approx(BERN_LLR_VAR, rel=1e-12, abs=0.0)
        assert m.third_abs_central == pytest.approx(BERN_LLR_T3, rel=1e-12, abs=0.0)
        # p0 = 1/2 makes the LLR a symmetric two-point variable, so
        # 6 E|Z - EZ|^3 / Var^{3/2} collapses to exactly 6.
        assert m.berry_constant == pytest.approx(6.0, rel=1e-12, abs=0.0)

    def test_gaussian_reference(self):
        m = llr_moments(GAUSS)
        assert m.mean == pytest.approx(0.00125, rel=1e-14, abs=0.0)
        assert m.variance == pytest.approx(0.0025, rel=1e-14, abs=0.0)
        assert m.third_abs_central == pytest.approx(GAUSS_T3, rel=1e-12, abs=0.0)
        assert m.berry_constant == pytest.approx(GAUSS_B, rel=1e-12, abs=0.0)

    def test_mean_is_forward_kl(self):
        for pair in (BERN, BERN06, FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.25, 0.25))):
            assert llr_moments(pair).mean == pytest.approx(
                kl_divergence(pair, Direction.FORWARD), rel=1e-11, abs=0.0
            )

    def test_identical_pair_degenerates(self):
        m = llr_moments(FiniteDiscretePair((0.3, 0.7), (0.3, 0.7)))
        assert m.variance == pytest.approx(0.0, abs=1e-18)
        assert m.berry_constant == 0.0


class TestParsePair:
    def test_bernoulli(self):
        assert parse_pair("bernoulli:0.5,0.51") == BERN

    def test_gaussian_with_and_without_sigma(self):
        assert parse_pair("gaussian:2,0.05") == GAUSS
        assert parse_pair("gaussian:2,0.05,3") == GaussianPair(2.0, 0.05, 3.0)

    def test_discrete(self):
        pair = parse_pair("discrete:0.2,0.8|0.6,0.4")
        assert pair == FiniteDiscretePair((0.2, 0.8), (0.6, 0.4))

    def test_scientific_notation(self):
        pair = parse_pair("bernoulli:5e-1,0.51")
        assert pair.p0 == 0.5

    def test_unknown_family_offset_zero(self):
        with pytest.raises(PairSpecError) as exc:
            parse_pair("beta:1,2")
        assert exc.value.offset == 0

    def test_missing_colon(self):
        with pytest.raises(PairSpecError) as exc:
            parse_pair("bernoulli")
        assert exc.value.offset == len("bernoulli")

    def test_bad_number_offset(self):
        with pytest.raises(PairSpecError) as exc:
            parse_pair("bernoulli:0.5,oops")
        assert exc.value.offset == len("bernoulli:0.5,")

    def test_wrong_arity(self):
        with pytest.raises(PairSpecError):
            parse_pair("bernoulli:0.1,0.2,0.3")
        with pytest.raises(PairSpecError):
            parse_pair("gaussian:1")

    def test_discrete_missing_bar(self):
        with pytest.raises(PairSpecError):
            parse_pair("discrete:0.5,0.5")

    def test_semantic_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            parse_pair("bernoulli:0.5,0.5")
        with pytest.raises(DomainError):
            parse_pair("gaussian:0,0")
