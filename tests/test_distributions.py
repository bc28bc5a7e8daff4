"""Tests for distribution pairs, divergences, and the pair grammar.

Reference divergence and moment values are from an independent mpmath
computation at 60 digits, pinned to 17 significant figures, or formed at
60 digits in the test on the pair's atoms, each vector scaled to sum to
exactly 1 as the library documents.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from htbounds.distributions import (
    BernoulliPair,
    Direction,
    FiniteDiscretePair,
    GaussianPair,
    PairSpecError,
    _tilt,
    _tilt_atoms,
    kl_divergence,
    parse_pair,
    renyi_divergence,
)
from htbounds.numerics import DomainError

from shared import mp_atoms, scalar_forms

BERN = BernoulliPair(0.5, 0.51)
BERN06 = BernoulliPair(0.5, 0.6)
GAUSS = GaussianPair(2.0, 0.05, 1.0)

# Bernoulli(0.5) vs Bernoulli(0.51)
BERN_KL_FWD = 0.00020004001066986769
BERN_KL_REV = 0.00020001333546712392
BERN_D2_REV = 0.00039992002132693538
BERN_H2 = 5.0006251312835251e-5
BERN_LLR_VAR = 0.00040010669938850906
# Bernoulli(0.5) vs Bernoulli(0.6)
BERN06_KL_REV = 0.020135513550688873
# Gaussian mu=2, delta=0.05, sigma=1
GAUSS_H2 = 0.00031245117696086568
GAUSS_B = 9.5746147296343843


def hellinger_forms(pair):
    """H^2 = 1 - e^psi(1/2) from the record's log affinity psi(1/2), and
    from the public D_1/2 = -2 psi(1/2) as -expm1(-D_1/2 / 2)."""
    d_half = renyi_divergence(pair, 0.5, Direction.FORWARD)
    return (-math.expm1(_tilt_atoms(pair, Direction.FORWARD).log_affinity),
            -math.expm1(-d_half / 2.0))


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

    @pytest.mark.parametrize("args", [
        (0.0, 1e-300),  # (delta / sigma)^2 underflows to 0
        (0.0, -1e-170),
        (0.0, 1e-200, 1e200),  # delta / sigma itself underflows
        (0.0, 1e300),  # (delta / sigma)^2 overflows
        (0.0, -1e160),
        (0.0, 1.0, 1e-300),
    ])
    def test_gaussian_separation_out_of_float_range(self, args):
        with pytest.raises(DomainError, match=r"\(delta / sigma\)\^2 in the float range"):
            GaussianPair(*args)

    def test_gaussian_separation_in_float_range(self):
        for delta in (1e-150, -1e-150, 1e150, -1e150):
            pair = GaussianPair(0.0, delta)
            assert 0.0 < kl_divergence(pair, Direction.FORWARD) < math.inf

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
    """KL, Hellinger, the LLR moments and the Berry-Esseen constant within
    1e-14 relative of 60 digits."""

    def test_kl_both_directions(self, spec):
        pair = parse_pair(spec)
        for direction in Direction:
            p, q = mp_atoms(pair, direction, dps=60)
            with mpmath.workdps(60):
                want = float(mpmath.fsum(a * mpmath.log(a / b) for a, b in zip(p, q)))
            got = kl_divergence(pair, direction)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), direction

    def test_hellinger(self, spec):
        pair = parse_pair(spec)
        p, q = mp_atoms(pair, Direction.FORWARD, dps=60)
        with mpmath.workdps(60):
            want = float(1 - mpmath.fsum(mpmath.sqrt(a * b) for a, b in zip(p, q)))
        for got in hellinger_forms(pair):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_llr_moments(self, spec):
        pair = parse_pair(spec)
        p, q = mp_atoms(pair, Direction.FORWARD, dps=60)
        with mpmath.workdps(60):
            z = [mpmath.log(a / b) for a, b in zip(p, q)]
            mean = mpmath.fsum(a * x for a, x in zip(p, z))
            var = mpmath.fsum(a * (x - mean) ** 2 for a, x in zip(p, z))
            berry = 6 * mpmath.fsum(a * abs(x - mean) ** 3 for a, x in zip(p, z)) / var**1.5
        atoms = _tilt_atoms(pair, Direction.FORWARD)
        assert atoms.kl == pytest.approx(float(mean), rel=1e-14, abs=0.0)
        assert atoms.var == pytest.approx(float(var), rel=1e-14, abs=0.0)
        assert atoms.berry == pytest.approx(float(berry), rel=1e-14, abs=0.0)


def _k64_pair():
    # Atoms from 1e-300 to 1: p falls geometrically, q is log-uniform in a
    # seeded order, so z = log(p / q) spans about -690 to 690.
    rng = np.random.default_rng(64)
    raw_p = 10.0 ** (-300.0 * np.arange(64) / 63)
    raw_q = 10.0 ** (-300.0 * rng.random(64))
    return FiniteDiscretePair(tuple((raw_p / math.fsum(raw_p)).tolist()),
                              tuple((raw_q / math.fsum(raw_q)).tolist()))


# The demo's two-fold product of a K = 3 pair (K = 9), and a K = 64 pair.
KERNEL_PAIRS = (
    FiniteDiscretePair(tuple(np.kron((0.2, 0.3, 0.5), (0.2, 0.3, 0.5))),
                       tuple(np.kron((0.4, 0.4, 0.2), (0.4, 0.4, 0.2)))),
    _k64_pair(),
)
# Both expansions (towards 0 and 1) and the shifted sum on either side of 1;
# at lam = 1 the kernel gives the pair constants kl and var.
KERNEL_LAMS = (1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.1, 2.0, 7.0, 50.0, 1e4)


@pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=("K9", "K64"))
@pytest.mark.parametrize("direction", Direction)
class TestScalarKernel:
    """The scalar psi kernel and the pair constants against 60 digits, within
    the (K + 8) eps rounding model that bounds.py's error bounds assume."""

    def test_psi_and_its_derivatives(self, pair, direction):
        p, q = mp_atoms(pair, direction, dps=60)
        ulps = (len(p) + 8) * sys.float_info.epsilon
        for lam in KERNEL_LAMS:
            psi, mean, var, size = _tilt(_tilt_atoms(pair, direction), lam)
            with mpmath.workdps(60):
                lam_mp = mpmath.mpf(lam)
                w = [a**lam_mp * b ** (1 - lam_mp) for a, b in zip(p, q)]
                z = [mpmath.log(a / b) for a, b in zip(p, q)]
                total = mpmath.fsum(w)
                want_mean = mpmath.fsum(x * y for x, y in zip(w, z)) / total
                abs_mean = float(mpmath.fsum(x * abs(y) for x, y in zip(w, z)) / total)
                rms = float(mpmath.sqrt(mpmath.fsum(x * y * y for x, y in zip(w, z)) / total))
                want_var = mpmath.fsum(x * (y - want_mean) ** 2 for x, y in zip(w, z)) / total
                errs = (float(abs(psi - mpmath.log(total))), float(abs(mean - want_mean)),
                        float(abs(var - want_var)))
            # psi to its size; psi' to the tilted mean of |z|; psi'' relative,
            # plus what the errors of z, up to ulps rms(z), do to (z - mean)^2.
            dz = ulps * rms
            assert errs[0] <= ulps * (abs(psi) + size), (lam, errs)
            assert errs[1] <= ulps * abs_mean, (lam, errs)
            assert errs[2] <= ulps * float(want_var) + 2.0 * math.sqrt(want_var) * dz + dz * dz, (
                lam, errs)

    def test_pair_constants(self, pair, direction):
        p, q = mp_atoms(pair, direction, dps=60)
        atoms = _tilt_atoms(pair, direction)
        with mpmath.workdps(60):
            z = [mpmath.log(a / b) for a, b in zip(p, q)]
            kl = mpmath.fsum(a * x for a, x in zip(p, z))
            var = mpmath.fsum(a * (x - kl) ** 2 for a, x in zip(p, z))
            want = {
                "z_abs": max(abs(x) for x in z),
                "z_min": min(z),
                "d_inf": max(z),
                "log_q_top": mpmath.log(mpmath.fsum(b for b, x in zip(q, z) if x == max(z))),
                "kl": kl,
                "var": var,
                "berry": 6 * mpmath.fsum(a * abs(x - kl) ** 3 for a, x in zip(p, z)) / var**1.5,
                "log_affinity": mpmath.log(mpmath.fsum(mpmath.sqrt(a * b) for a, b in zip(p, q))),
            }
        ulps = (len(p) + 8) * sys.float_info.epsilon
        for name, value in want.items():
            assert getattr(atoms, name) == pytest.approx(float(value), rel=ulps, abs=0.0), name


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

    def test_monotone_in_lambda(self):
        vals = [renyi_divergence(BERN06, lam, Direction.FORWARD) for lam in (0.2, 0.6, 1.5, 3.0, 10.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bernoulli_bounded_as_lambda_grows(self):
        # For discrete pairs D_lambda tends to the largest log ratio, so it
        # stays bounded; here log(0.5/0.4) under REVERSE order.
        cap = math.log(0.6 / 0.5)
        assert renyi_divergence(BERN06, 1e5, Direction.REVERSE) < cap + 1e-6

    def test_finite_where_psi_overflows(self):
        # psi(lambda) passes 1.8e308 while D_lambda stays finite: a Gaussian
        # D_lambda is lambda d^2 / 2, a discrete one rounds to D_inf there.
        assert renyi_divergence(GaussianPair(0.0, 1.0), 1e300, Direction.FORWARD) == 5e299
        d = renyi_divergence(GaussianPair(0.0, 1e-152), 1e307, Direction.REVERSE)
        assert d == pytest.approx(500.0, rel=1e-15, abs=0.0)
        pair = BernoulliPair(0.1, 0.9)
        d_inf = math.log(0.9 / 0.1)
        vals = [renyi_divergence(pair, lam, Direction.FORWARD) for lam in (1e300, 1e307, 1e308)]
        assert vals == [d_inf] * 3

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
                p, q = mp_atoms(pair, direction, dps=60)
                for lam in lams.tolist():
                    with mpmath.workdps(60):
                        lam_mp = mpmath.mpf(lam)
                        s = mpmath.fsum(a**lam_mp * b ** (1 - lam_mp) for a, b in zip(p, q))
                        ref = float(mpmath.log(s) / (lam_mp - 1))
                    got = renyi_divergence(pair, lam, direction)
                    assert abs(got - ref) <= 1e-13 * abs(ref), (spec, direction, lam)

    def test_lambda_validation(self):
        for bad in (1.0, 0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                renyi_divergence(BERN, bad, Direction.FORWARD)
        with pytest.raises(DomainError):
            renyi_divergence(BERN, np.array([0.5, 1.0]), Direction.FORWARD)


LAMBDA_FINITE = "renyi_divergence requires finite lambda"
LAMBDA_POSITIVE = "renyi_divergence requires lambda > 0"
LAMBDA_KL = "lambda = 1 is the KL limit; use kl_divergence"
K3 = FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))


class TestRenyiFastPath:
    """Every scalar form of lambda gives the bits of its float form as a
    plain float, a bad lambda raises the same DomainError text in every
    form, and an array lambda is refused."""

    @pytest.mark.parametrize("pair", [BERN06, K3, GAUSS], ids=["bernoulli", "K3", "gaussian"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_scalar_equals_array_element(self, pair, direction):
        for lam in (1e-9, 0.3, 0.999, 1.001, 2.0, 7.0, 1e6):
            want = renyi_divergence(pair, lam, direction)
            for form in scalar_forms(lam):
                got = renyi_divergence(pair, form, direction)
                assert type(got) is float
                assert repr(got) == repr(want), (lam, type(form))

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
            for form in scalar_forms(lam):
                with pytest.raises(DomainError) as info:
                    renyi_divergence(pair, form, Direction.FORWARD)
                assert str(info.value) == message

    def test_array_reports_first_failing_check(self):
        # an array, however valid its entries, is not a finite scalar
        cases = [np.array([]), np.asarray(2.0), np.array([2.0]), np.array([1.0, -1.0, math.nan]),
                 np.array([[0.5, 2.0], [1.5, 3.0]])]
        for pair in (BERN06, GAUSS):
            for lam in cases:
                with pytest.raises(DomainError) as info:
                    renyi_divergence(pair, lam, Direction.FORWARD)
                assert str(info.value) == LAMBDA_FINITE


class TestAtomCache:
    """White-box checks of the per-(pair, direction) cache in _tilt_atoms."""

    def test_atoms_are_read_only(self):
        before = renyi_divergence(K3, 2.5, Direction.FORWARD)
        atoms = _tilt_atoms(K3, Direction.FORWARD)
        for atoms_of in (atoms.logp, atoms.p, atoms.q, atoms.z):
            assert isinstance(atoms_of, tuple)
            with pytest.raises(TypeError):
                atoms_of[0] = 0.0
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
        assert fwd_atoms.p == rev_atoms.q
        assert fwd_atoms.q == rev_atoms.p
        # From a cold cache the order of first use does not matter.
        _tilt_atoms.cache_clear()
        assert [renyi_divergence(pair, lam, Direction.REVERSE) for lam in (0.3, 2.0)] == rev
        assert [renyi_divergence(pair, lam, Direction.FORWARD) for lam in (0.3, 2.0)] == fwd

    # (delta / sigma)**2 and d * d differ by an ulp at the second pair, so
    # kl and log_affinity are pinned to the first form and var to the second.
    @pytest.mark.parametrize("pair", [
        GAUSS, GaussianPair(0.0, 0.39390836244285854, 1.1969007746861755),
        GaussianPair(1.0, -3.0, 0.5), GaussianPair(0.0, 1e103),
    ])
    def test_gaussian_record(self, pair):
        d, z = abs(pair.delta) / pair.sigma, pair.delta / pair.sigma
        c = math.sqrt(8.0 / math.pi)
        for direction in Direction:
            atoms = _tilt_atoms(pair, direction)
            assert atoms.z == () and atoms.d_inf == math.inf and atoms.log_q_top == -math.inf
            got = (atoms.kl, atoms.var, atoms.berry, atoms.log_affinity)
            assert repr(got) == repr((z**2 / 2.0, d * d, 6.0 * c, -(z**2) / 8.0))

    @pytest.mark.parametrize("pair", [GAUSS, GaussianPair(0.0, 1e-150), GaussianPair(0.0, -1e100)])
    @pytest.mark.parametrize("lam", [1e-9, 0.5, 1.001, 1e6])
    def test_gaussian_tilt_matches_mpmath(self, pair, lam):
        psi, mean, var, size = _tilt(_tilt_atoms(pair, Direction.FORWARD), lam)
        with mpmath.workdps(60):
            d2, x = (mpmath.mpf(pair.delta) / mpmath.mpf(pair.sigma)) ** 2, mpmath.mpf(lam)
            want = (x * (x - 1) * d2 / 2, (x - mpmath.mpf(0.5)) * d2, d2)
        for got, ref in zip((psi, mean, var), want):
            assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)
        assert size == 0.0

    def test_cache_stays_bounded(self):
        for i in range(1000):
            renyi_divergence(BernoulliPair(0.5, 0.1 + 0.3 * i / 1000), 2.0, Direction.FORWARD)
        info = _tilt_atoms.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestHellinger:
    def test_reference_values(self):
        for got in hellinger_forms(BERN):
            assert got == pytest.approx(BERN_H2, rel=1e-11, abs=0.0)
        for got in hellinger_forms(GAUSS):
            assert got == pytest.approx(GAUSS_H2, rel=1e-12, abs=0.0)

    def test_direct_sum_agreement(self):
        direct = 1.0 - (
            math.sqrt(0.5 * 0.4) + math.sqrt(0.5 * 0.6)
        )
        for got in hellinger_forms(BERN06):
            assert got == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_range(self):
        far = FiniteDiscretePair((0.999, 0.001), (0.001, 0.999))
        for got in hellinger_forms(BERN):
            assert 0.0 < got < 1.0
        for got in hellinger_forms(far):
            assert 0.5 < got < 1.0


class TestLLRMoments:
    """The forward record's LLR constants: kl, var and berry of log(p0/p1) under P0."""

    def test_bernoulli_reference(self):
        atoms = _tilt_atoms(BERN, Direction.FORWARD)
        assert atoms.kl == pytest.approx(BERN_KL_FWD, rel=1e-12, abs=0.0)
        assert atoms.var == pytest.approx(BERN_LLR_VAR, rel=1e-12, abs=0.0)
        # p0 = 1/2 makes the LLR a symmetric two-point variable, so
        # 6 E|Z - EZ|^3 / Var^{3/2} collapses to exactly 6.
        assert atoms.berry == pytest.approx(6.0, rel=1e-12, abs=0.0)

    def test_gaussian_reference(self):
        atoms = _tilt_atoms(GAUSS, Direction.FORWARD)
        assert atoms.kl == pytest.approx(0.00125, rel=1e-14, abs=0.0)
        assert atoms.var == pytest.approx(0.0025, rel=1e-14, abs=0.0)
        assert atoms.berry == pytest.approx(GAUSS_B, rel=1e-12, abs=0.0)

    def test_gaussian_third_moment_past_float_range(self):
        # d^3 sqrt(8/pi) overflows at d = 1e103 while d^2 = 1e206 is in
        # range; the record's constant 6 sqrt(8/pi) does not involve it
        atoms = _tilt_atoms(GaussianPair(0.0, 1e103), Direction.FORWARD)
        assert atoms.var == pytest.approx(1e206, rel=1e-15, abs=0.0)
        assert atoms.berry == pytest.approx(GAUSS_B, rel=1e-12, abs=0.0)

    def test_mean_is_forward_kl(self):
        for pair in (BERN, BERN06, FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.25, 0.25))):
            assert _tilt_atoms(pair, Direction.FORWARD).kl == pytest.approx(
                kl_divergence(pair, Direction.FORWARD), rel=1e-11, abs=0.0
            )

    @pytest.mark.parametrize("p0, p1", [(1e-300, 0.5), (1e-200, 1.001e-200)])
    def test_berry_constant_below_normal_variance(self, p0, p1):
        # Var^{3/2} is below the normal range (0 for the first pair); a
        # two-valued LLR with mass p0 on one value has 6 rho / sigma^3 =
        # 6 (p0^2 + (1 - p0)^2) / sqrt(p0 (1 - p0)) = 6 / sqrt(p0) here
        atoms = _tilt_atoms(BernoulliPair(p0, p1), Direction.FORWARD)
        assert atoms.var**1.5 < sys.float_info.min
        assert atoms.berry == pytest.approx(6.0 / math.sqrt(p0), rel=1e-13, abs=0.0)

    def test_berry_constant_where_third_moment_underflows(self):
        # rho = sum p |z - kl|^3 underflows to 0 while the variance (2e-322)
        # does not: the constant is still about 6 / sqrt(p0), not 0; the
        # subnormal variance holds only about 2 digits
        atoms = _tilt_atoms(BernoulliPair(1e-290, 1.0000000000000002e-290), Direction.FORWARD)
        assert math.fsum(a * abs(x - atoms.kl) ** 3 for a, x in zip(atoms.p, atoms.z)) == 0.0
        assert atoms.var > 0.0
        assert atoms.berry == pytest.approx(6e145, rel=1e-2, abs=0.0)

    def test_identical_pair_degenerates(self):
        atoms = _tilt_atoms(FiniteDiscretePair((0.3, 0.7), (0.3, 0.7)), Direction.FORWARD)
        assert atoms.var == pytest.approx(0.0, abs=1e-18)
        assert atoms.berry == 0.0


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

    def test_parse_errors_are_domain_errors(self):
        # one except clause answers every input the library cannot answer
        with pytest.raises(DomainError) as exc:
            parse_pair("bernoulli:x,0.6")
        assert isinstance(exc.value, PairSpecError)
        assert exc.value.offset == len("bernoulli:")
        assert str(exc.value) == "bad number 'x' in bernoulli parameters (at offset 10)"

    def test_discrete_missing_bar(self):
        with pytest.raises(PairSpecError):
            parse_pair("discrete:0.5,0.5")

    def test_semantic_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            parse_pair("bernoulli:0.5,0.5")
        with pytest.raises(DomainError):
            parse_pair("gaussian:0,0")
