"""Tests for the exact Neyman-Pearson oracles."""

import math
from fractions import Fraction

import pytest

from htbounds.cli import cli_main
from htbounds.distributions import BernoulliPair, FiniteDiscretePair, GaussianPair
from htbounds.numerics import DomainError, log_q
from htbounds.oracle import (
    SizeError,
    check_bruteforce_size,
    np_exact_bernoulli,
    np_exact_discrete_bruteforce,
    np_exact_gaussian,
)

GAUSS = GaussianPair(2.0, 0.05, 1.0)
BERN = BernoulliPair(0.5, 0.51)

# np_exact_gaussian(GAUSS, 100, log 0.01)
NP_GAUSS_BETA = 0.96610106087715722
NP_GAUSS_GAMMA = 2.2326347874040841


class TestGaussian:
    def test_reference_point(self):
        r = np_exact_gaussian(GAUSS, 100, math.log(0.01))
        assert r.beta == pytest.approx(NP_GAUSS_BETA, rel=1e-12)
        assert r.threshold == pytest.approx(NP_GAUSS_GAMMA, rel=1e-12)
        assert r.randomization == 0.0
        assert r.achieved_alpha == pytest.approx(0.01, rel=1e-14)
        assert r.log_beta == pytest.approx(math.log(r.beta), rel=1e-12)

    def test_negative_delta_is_symmetric(self):
        pos = np_exact_gaussian(GaussianPair(2.0, 0.05), 100, math.log(0.01))
        neg = np_exact_gaussian(GaussianPair(2.0, -0.05), 100, math.log(0.01))
        assert neg.beta == pytest.approx(pos.beta, rel=1e-14)
        # mirrored critical value: mu - (gamma_pos - mu)
        assert neg.threshold == pytest.approx(2.0 - (pos.threshold - 2.0), rel=1e-12)

    def test_beta_decreases_with_n(self):
        betas = [np_exact_gaussian(GAUSS, n, math.log(0.01)).beta for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_deep_log_eps(self):
        r = np_exact_gaussian(GAUSS, 100, -5000.0)
        assert r.beta == pytest.approx(1.0, abs=1e-9)
        assert math.isfinite(r.threshold)

    def test_validation(self):
        with pytest.raises(DomainError):
            np_exact_gaussian(BERN, 10, math.log(0.01))
        with pytest.raises(DomainError):
            np_exact_gaussian(GAUSS, 0, math.log(0.01))
        with pytest.raises(DomainError):
            np_exact_gaussian(GAUSS, 10, 0.0)


def _bernoulli_type1(pair, n, k, gamma):
    # P0(S > k) + gamma P0(S = k), computed directly.
    from scipy.stats import binom

    tail = binom.sf(k, n, pair.p0)
    return tail + gamma * binom.pmf(k, n, pair.p0)


def _bernoulli_exact(p0, p1, n, eps):
    # (k, gamma, beta, alpha) of the NP test in exact rational arithmetic.
    def pmf(p, s):
        return math.comb(n, s) * p**s * (1 - p) ** (n - s)

    def above(p, k):
        return sum((pmf(p, s) for s in range(k + 1, n + 1)), Fraction(0))

    k = next(k for k in range(n + 1) if above(p0, k) <= eps)
    gamma = (eps - above(p0, k)) / pmf(p0, k)
    beta = 1 - above(p1, k) - gamma * pmf(p1, k)
    return k, gamma, beta, above(p0, k) + gamma * pmf(p0, k)


class TestBernoulli:
    def test_single_sample_half_budget(self):
        r = np_exact_bernoulli(BERN, 1, math.log(0.5))
        assert r.beta == pytest.approx(0.49, rel=1e-12)
        assert r.achieved_alpha == pytest.approx(0.5, rel=1e-12)
        # the defining property: the test spends the whole Type I budget
        assert _bernoulli_type1(BERN, 1, r.threshold, r.randomization) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_randomization_exhausts_budget(self):
        for n, eps in ((10, 0.07), (25, 0.01), (60, 0.321)):
            r = np_exact_bernoulli(BERN, n, math.log(eps))
            assert r.achieved_alpha == pytest.approx(eps, rel=1e-10)
            assert 0.0 <= r.randomization < 1.0
            assert _bernoulli_type1(BERN, n, r.threshold, r.randomization) == pytest.approx(
                eps, abs=1e-12
            )

    def test_eps_one_rejects_always(self):
        r = np_exact_bernoulli(BERN, 5, 0.0)
        assert r.beta == 0.0
        assert r.log_beta == -math.inf
        assert r.achieved_alpha == 1.0

    def test_mirrored_pair(self):
        a = np_exact_bernoulli(BernoulliPair(0.4, 0.7), 12, math.log(0.05))
        b = np_exact_bernoulli(BernoulliPair(0.6, 0.3), 12, math.log(0.05))
        assert a.beta == pytest.approx(b.beta, rel=1e-12)
        assert a.achieved_alpha == pytest.approx(b.achieved_alpha, rel=1e-12)
        assert b.threshold == pytest.approx(12 - a.threshold, abs=1e-12)

    @pytest.mark.parametrize("n, eps", [(1, Fraction(3, 10)), (3, Fraction(1, 10))])
    def test_boundary_class_at_s_equals_n(self, n, eps):
        # P0(S = n) > eps: the test can only randomize on the all-ones sample,
        # and nothing lies above the boundary class.
        p0, p1 = Fraction(1, 2), Fraction(51, 100)
        k, gamma, beta, alpha = _bernoulli_exact(p0, p1, n, eps)
        assert k == n
        r = np_exact_bernoulli(BERN, n, math.log(float(eps)))
        assert r.threshold == n
        assert r.randomization == pytest.approx(float(gamma), rel=1e-12, abs=0.0)
        assert r.beta == pytest.approx(float(beta), rel=1e-12)
        assert r.log_beta == pytest.approx(math.log(beta), rel=1e-12, abs=1e-15)
        assert r.achieved_alpha == pytest.approx(float(alpha), rel=1e-12, abs=0.0)

    def test_tie_randomization_above_one_is_a_domain_error(self, tmp_path):
        # At eps = 1 - 1e-12 and n = 10,000 rounding in the log P0 tail picks
        # a boundary class whose randomization would exceed 1 (math.exp of
        # it overflows).  Clamping it to 1 would print 1.35e-13, but 60-digit
        # mpmath gives beta = 8.35e-20 (boundary class at n - S = 4549), so
        # the oracle refuses and a sweep leaves the cell empty.
        pair = BernoulliPair(0.51, 0.5)
        with pytest.raises(DomainError, match="rounding in the log P0 tail"):
            np_exact_bernoulli(pair, 10_000, math.log(1.0 - 1e-12))
        csv = tmp_path / "out.csv"
        argv = ["sweep", "--pair", "bernoulli:0.51,0.5", "--eps", "0.999999999999",
                "--n-min", "10000", "--n-max", "10000", "--bounds", "np_exact", "--csv", str(csv)]
        assert cli_main(argv) == 0
        header, row = csv.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["np_exact_value"], cells["np_exact_valid"]) == ("", "false")

    def test_log_beta_consistent(self):
        r = np_exact_bernoulli(BERN, 500, math.log(0.01))
        assert r.beta == pytest.approx(math.exp(r.log_beta), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            np_exact_bernoulli(GAUSS, 10, math.log(0.1))
        with pytest.raises(DomainError):
            np_exact_bernoulli(BERN, 10, 0.5)


class TestBruteforce:
    def test_matches_bernoulli(self):
        pair_b = BernoulliPair(0.3, 0.6)
        pair_d = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        for n, eps in ((1, 0.5), (6, 0.13), (10, 0.04)):
            a = np_exact_bernoulli(pair_b, n, math.log(eps))
            b = np_exact_discrete_bruteforce(pair_d, n, eps)
            assert b.beta == pytest.approx(a.beta, abs=1e-12)
            assert b.achieved_alpha == pytest.approx(a.achieved_alpha, abs=1e-12)

    def test_eps_zero_accepts_always(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        r = np_exact_discrete_bruteforce(pair, 3, 0.0)
        assert r.beta == 1.0
        assert r.achieved_alpha == 0.0

    def test_eps_one_rejects_always(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        r = np_exact_discrete_bruteforce(pair, 3, 1.0)
        assert r.beta == pytest.approx(0.0, abs=1e-12)
        assert r.threshold == -math.inf

    def test_identical_pair_is_diagonal(self):
        pair = FiniteDiscretePair((0.3, 0.7), (0.3, 0.7))
        for eps in (0.0, 0.25, 0.8):
            r = np_exact_discrete_bruteforce(pair, 4, eps)
            assert r.beta == pytest.approx(1.0 - eps, abs=1e-12)

    def test_three_symbol_randomization(self):
        pair = FiniteDiscretePair((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
        r = np_exact_discrete_bruteforce(pair, 5, 0.123)
        assert r.achieved_alpha == pytest.approx(0.123, abs=1e-12)
        assert 0.0 < r.beta < 1.0

    def test_size_limits(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        with pytest.raises(SizeError):
            np_exact_discrete_bruteforce(pair, 15, 0.1)
        ten = FiniteDiscretePair((0.1,) * 10, (0.1,) * 10)
        with pytest.raises(SizeError):
            np_exact_discrete_bruteforce(ten, 8, 0.1)

    def test_size_check_reach(self):
        # n <= 14 and K^n <= 1e7, with K counting only atoms of positive mass
        three = FiniteDiscretePair((0.2, 0.3, 0.5, 0.0), (0.5, 0.3, 0.2, 0.0))
        check_bruteforce_size(three, 14)  # 3^14 = 4.8e6
        four = FiniteDiscretePair((0.25,) * 4, (0.1, 0.2, 0.3, 0.4))
        check_bruteforce_size(four, 11)  # 4^11 = 4.2e6
        with pytest.raises(SizeError):
            check_bruteforce_size(four, 12)  # 4^12 = 1.7e7
        with pytest.raises(SizeError):
            check_bruteforce_size(FiniteDiscretePair((0.7, 0.3), (0.4, 0.6)), 15)

    def test_validation(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        with pytest.raises(DomainError):
            np_exact_discrete_bruteforce(pair, 3, 1.5)
        with pytest.raises(DomainError):
            np_exact_discrete_bruteforce(BERN, 3, 0.5)


class TestCrossValidation:
    def test_bernoulli_beta_monotone_in_eps(self):
        betas = [
            np_exact_bernoulli(BERN, 50, math.log(eps)).beta for eps in (0.01, 0.1, 0.5, 0.9)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(betas, betas[1:]))

    def test_gaussian_threshold_encodes_quantile(self):
        # beta = Q(sqrt(n) d - xq) with xq recoverable from the reported
        # critical value, so 1 - beta = Q(xq - sqrt(n) d).
        n = 400
        r = np_exact_gaussian(GAUSS, n, math.log(0.05))
        xq = math.sqrt(n) * (r.threshold - GAUSS.mu) / GAUSS.sigma
        assert log_q(xq - math.sqrt(n) * GAUSS.delta / GAUSS.sigma) == pytest.approx(
            math.log1p(-r.beta), rel=1e-9
        )
