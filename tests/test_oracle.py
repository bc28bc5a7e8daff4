"""Tests for the exact Neyman-Pearson oracles."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from htbounds.bounds import Constant, Exponential, Linear, eps_at
from htbounds.cli import DEFAULT_N, cli_main
from htbounds.distributions import (BernoulliPair, Direction, FiniteDiscretePair, GaussianPair,
                                    _tilt_atoms, kl_divergence, parse_pair)
from htbounds import oracle
from htbounds.numerics import DomainError, log_q
from htbounds.oracle import (
    _check_type_count,
    _log_factorial_level,
    _log_factorial_range,
    _log_factorials,
    np_exact_bernoulli,
    np_exact_discrete,
    np_exact_gaussian,
)

from bruteforce import np_exact_bernoulli_fullrange, np_exact_discrete_bruteforce

GAUSS = GaussianPair(2.0, 0.05, 1.0)
BERN = BernoulliPair(0.5, 0.51)

# np_exact_gaussian(GAUSS, 100, log 0.01)
NP_GAUSS_BETA = 0.96610106087715722
NP_GAUSS_GAMMA = 2.2326347874040841


class TestGaussian:
    def test_reference_point(self):
        r = np_exact_gaussian(GAUSS, 100, math.log(0.01))
        assert r.beta == pytest.approx(NP_GAUSS_BETA, rel=1e-12, abs=0.0)
        assert r.threshold == pytest.approx(NP_GAUSS_GAMMA, rel=1e-12, abs=0.0)
        assert r.randomization == 0.0
        assert r.log_beta == pytest.approx(math.log(r.beta), rel=1e-12, abs=0.0)

    def test_negative_delta_is_symmetric(self):
        pos = np_exact_gaussian(GaussianPair(2.0, 0.05), 100, math.log(0.01))
        neg = np_exact_gaussian(GaussianPair(2.0, -0.05), 100, math.log(0.01))
        assert neg.beta == pytest.approx(pos.beta, rel=1e-14, abs=0.0)
        # mirrored critical value: mu - (gamma_pos - mu)
        assert neg.threshold == pytest.approx(2.0 - (pos.threshold - 2.0), rel=1e-12, abs=0.0)

    def test_beta_decreases_with_n(self):
        betas = [np_exact_gaussian(GAUSS, n, math.log(0.01)).beta for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_deep_log_eps(self):
        r = np_exact_gaussian(GAUSS, 100, -5000.0)
        assert r.beta == pytest.approx(1.0, abs=1e-9)
        assert math.isfinite(r.threshold)

    def test_log_eps_at_the_end_of_its_domain(self):
        # the threshold Q^{-1}(eps) is 1.9e154 at log eps = -max float, so beta = 1
        r = np_exact_gaussian(GaussianPair(0.0, 1.0), 10, -sys.float_info.max)
        assert (r.log_beta, math.copysign(1.0, r.log_beta)) == (0.0, -1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            np_exact_gaussian(BERN, 10, math.log(0.01))


def _pmf(p, n, s):
    # P(S = s) for S ~ Bin(n, p), in exact rational arithmetic on p
    p = Fraction(p)
    return math.comb(n, s) * p**s * (1 - p) ** (n - s)


def _above(p, n, k):
    # P(S > k), exactly
    return sum((_pmf(p, n, s) for s in range(k + 1, n + 1)), Fraction(0))


def _bernoulli_type1(pair, n, k, gamma):
    # P0(S > k) + gamma P0(S = k), exactly on the float p0
    return float(_above(pair.p0, n, int(k)) + Fraction(gamma) * _pmf(pair.p0, n, int(k)))


def _bernoulli_exact(p0, p1, n, eps):
    # (k, gamma, beta) of the NP test in exact rational arithmetic.
    k = next(k for k in range(n + 1) if _above(p0, n, k) <= eps)
    gamma = (eps - _above(p0, n, k)) / _pmf(p0, n, k)
    beta = 1 - _above(p1, n, k) - gamma * _pmf(p1, n, k)
    return k, gamma, beta


class TestBernoulli:
    def test_single_sample_half_budget(self):
        r = np_exact_bernoulli(BERN, 1, math.log(0.5))
        assert r.beta == pytest.approx(0.49, rel=1e-12, abs=0.0)
        # the defining property: the test spends the whole Type I budget
        assert _bernoulli_type1(BERN, 1, r.threshold, r.randomization) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_randomization_exhausts_budget(self):
        for n, eps in ((10, 0.07), (25, 0.01), (60, 0.321)):
            r = np_exact_bernoulli(BERN, n, math.log(eps))
            assert 0.0 <= r.randomization < 1.0
            assert _bernoulli_type1(BERN, n, r.threshold, r.randomization) == pytest.approx(
                eps, abs=1e-12
            )

    def test_eps_one_rejects_always(self):
        r = np_exact_bernoulli(BERN, 5, 0.0)
        assert r.beta == 0.0
        assert r.log_beta == -math.inf

    def test_mirrored_pair(self):
        a = np_exact_bernoulli(BernoulliPair(0.4, 0.7), 12, math.log(0.05))
        b = np_exact_bernoulli(BernoulliPair(0.6, 0.3), 12, math.log(0.05))
        assert a.beta == pytest.approx(b.beta, rel=1e-12, abs=0.0)
        assert b.threshold == pytest.approx(12 - a.threshold, abs=1e-12)

    @pytest.mark.parametrize("n, eps", [(1, Fraction(3, 10)), (3, Fraction(1, 10))])
    def test_boundary_class_at_s_equals_n(self, n, eps):
        # P0(S = n) > eps: the test can only randomize on the all-ones sample,
        # and nothing lies above the boundary class.
        p0, p1 = Fraction(1, 2), Fraction(51, 100)
        k, gamma, beta = _bernoulli_exact(p0, p1, n, eps)
        assert k == n
        r = np_exact_bernoulli(BERN, n, math.log(float(eps)))
        assert r.threshold == n
        assert r.randomization == pytest.approx(float(gamma), rel=1e-12, abs=0.0)
        assert r.beta == pytest.approx(float(beta), rel=1e-12, abs=0.0)
        assert r.log_beta == pytest.approx(math.log(beta), rel=1e-12, abs=1e-15)

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

    def test_mirrored_success_rounding_to_one_is_a_domain_error(self, tmp_path):
        # p1 < p0 is tested on n - S, with success probabilities 1 - p; where
        # 1 - p1 rounds to 1 (p1 <= 2^-54) the oracle refuses, and a sweep
        # keeps every other column and leaves np_exact empty.
        for p1 in (1e-300, 2.0**-54):
            with pytest.raises(DomainError, match="rounds to 1"):
                np_exact_bernoulli(BernoulliPair(0.5, p1), 10, math.log(0.01))
        assert 0.0 < np_exact_bernoulli(BernoulliPair(0.5, 2.0**-53), 10, math.log(0.01)).beta < 1.0
        csv = tmp_path / "out.csv"
        argv = ["sweep", "--pair", "bernoulli:0.5,1e-300", "--n-min", "10", "--n-max", "20"]
        assert cli_main([*argv, "--csv", str(csv)]) == 0
        header, *rows = csv.read_text().splitlines()
        others = tmp_path / "others.csv"
        columns = header.split(",")
        bounds = [c[: -len("_value")] for c in columns if c.endswith("_value")]
        assert "np_exact" in bounds
        bounds.remove("np_exact")
        assert cli_main([*argv, "--bounds", ",".join(bounds), "--csv", str(others)]) == 0
        other_header, *other_rows = others.read_text().splitlines()
        want = [dict(zip(other_header.split(","), row.split(","))) for row in other_rows]
        for row, expected in zip(rows, want, strict=True):
            cells = dict(zip(columns, row.split(",")))
            assert (cells.pop("np_exact_value"), cells.pop("np_exact_valid")) == ("", "false")
            cells.pop("np_exact_optimizer")
            assert cells == expected

    def test_log_beta_consistent(self):
        r = np_exact_bernoulli(BERN, 500, math.log(0.01))
        assert r.beta == pytest.approx(math.exp(r.log_beta), rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            np_exact_bernoulli(GAUSS, 10, math.log(0.1))


def _outcome(oracle, pair, n, log_eps):
    # every field by repr (so -0.0 and 0.0 differ), or the error raised
    try:
        return repr(oracle(pair, n, log_eps))
    except DomainError as e:
        return f"DomainError: {e}"


def _same_as_fullrange(p0, p1, n, log_eps):
    pair = BernoulliPair(p0, p1)
    want = _outcome(np_exact_bernoulli_fullrange, pair, n, log_eps)
    assert _outcome(np_exact_bernoulli, pair, n, log_eps) == want, (p0, p1, n, log_eps)
    return want


_prob = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
_log_eps = st.one_of(
    st.sampled_from([0.0, -math.inf]),
    st.floats(min_value=-3000.0, max_value=0.0),
    st.floats(min_value=-17.0, max_value=-0.1).map(lambda u: math.log1p(-(10.0**u))),
    st.floats(min_value=-18.0, max_value=-10.0).map(lambda u: -(10.0**u)),
)


class TestBernoulliWindow:
    """np_exact_bernoulli forms each tail's log masses only over a window
    from the P0 mean (P0) or k (P1) up to a closed-form bound past its cut,
    and sums each tail only from its cut down; the full-range reference in
    bruteforce.py must give the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(_prob, _prob, st.integers(min_value=1, max_value=20_000), _log_eps)
    @example(0.4, 0.7, 12, math.log(0.05))
    @example(0.6, 0.3, 12, math.log(0.05))  # mirrored
    @example(0.3, 0.8, 20_000, -2000.0)
    @example(0.9, 0.2, 20_000, math.log(0.3))  # mirrored, k far from n p0
    # Both tails start where the mass falls C nats below eps or below the
    # largest P1 term above k; these cells sit at the edges of that cut.
    @example(0.5, 0.7, 20_000, math.log(0.01))
    @example(0.02, 0.98, 20_000, math.log(0.01))  # far pair
    @example(0.5, 0.5001, 20_000, math.log(0.01))  # near pair
    @example(0.5, 0.7, 20_000, -3000.0)
    @example(0.5, 0.51, 20_000, -6.058369314320538)  # k = 10,200: k + 1 just above n p1
    @example(0.5, 0.51, 20_000, -6.0142747792811315)  # k = 10,199: k + 1 the P1 mode
    # The log masses are formed only up to a closed-form bound past each cut.
    @example(0.0078125, 0.25, 47, -220.0)  # skewed: a normal-approximation end misses the cut
    @example(0.5, 0.999, 20_000, math.log(0.01))  # p1 near 1: the P1 window reaches n
    @example(0.5, 0.51, 20_000, -600.0)  # k above the P1 mode
    @example(0.3, 0.6, 1, math.log(0.2))  # n = 1
    @example(0.6, 0.3, 1, math.log(0.7))  # n = 1, mirrored
    def test_bit_identical_to_fullrange(self, p0, p1, n, log_eps):
        assume(p0 != p1)
        _same_as_fullrange(p0, p1, n, log_eps)

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.51), (0.51, 0.5)])
    @pytest.mark.parametrize("n", [1, 7, 20_000])
    def test_eps_one_and_zero(self, p0, p1, n):
        for log_eps in (0.0, -0.0, -math.inf):
            _same_as_fullrange(p0, p1, n, log_eps)
        assert np_exact_bernoulli(BernoulliPair(p0, p1), n, 0.0).beta == 0.0
        assert np_exact_bernoulli(BernoulliPair(p0, p1), n, -math.inf).beta == 1.0

    @pytest.mark.parametrize("n, eps", [(1, 0.3), (3, 0.1), (40, 1e-13)])
    def test_boundary_class_at_n(self, n, eps):
        _same_as_fullrange(0.5, 0.51, n, math.log(eps))
        assert np_exact_bernoulli(BERN, n, math.log(eps)).threshold == n

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.51), (0.3, 0.6), (0.8, 0.1)])
    @pytest.mark.parametrize("eps", [0.6, 0.9, 1.0 - 1e-9])
    def test_eps_above_the_tail_at_the_mean(self, p0, p1, eps):
        # eps >= P0(S >= mean): the boundary class lies below the P0 mean,
        # so the counts below it must be formed too.
        n = 2000
        r = np_exact_bernoulli(BernoulliPair(p0, p1), n, math.log(eps))
        k = n - r.threshold if p1 < p0 else r.threshold
        assert k < int(n * (1.0 - p0 if p1 < p0 else p0))
        _same_as_fullrange(p0, p1, n, math.log(eps))

    def test_refusal_is_the_same_error(self):
        # the refusal that test_tie_randomization_above_one_is_a_domain_error pins
        want = _same_as_fullrange(0.51, 0.5, 10_000, math.log(1.0 - 1e-12))
        assert want.startswith("DomainError: np_exact_bernoulli: rounding in the log P0 tail")

    def test_log_factorials_table(self):
        for n in (5, 20_000, 3, 1, 700, 20_000, 64, 63, 2):
            got = _log_factorials(n)
            assert np.array_equal(got, gammaln(np.arange(n + 1) + 1)), n
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0

    def test_log_factorials_are_gammaln_bit_for_bit(self):
        # both sides of cephes' lgam branch points: the exact product below
        # k + 1 = 13, the polynomial correction below 1000 and Stirling's
        # three terms from there, whose bits the polynomial gives too;
        # 2^20 entries, 48 of which np.log in place of libm's log would move
        size = 1 << 20
        early = _log_factorials(100)
        got = _log_factorials(size - 1)
        assert np.array_equal(got, gammaln(np.arange(size) + 1.0))
        # the table grew by appending: a view handed out before keeps its values
        assert np.array_equal(early, got[:101])
        # any range evaluates as the whole table does
        # (5, 1500) crosses lgam's branch points at 13 and 1000 in one call
        for start, stop in ((0, 5), (11, 14), (12, 13), (998, 1003), (5, 1500), (7, 7),
                            (size - 7, size)):
            assert np.array_equal(_log_factorial_range(start, stop), got[start:stop]), (start, stop)


    def test_log_factorials_grow_under_threads(self):
        # Sixteen threads build the levels from an empty cache at once, with
        # a thread switch every microsecond, ten times over: each gets the
        # bits it asked for, and the cache ends holding every level up to the
        # largest request's.
        sizes = [37 * (i + 1) ** 3 for i in range(16)]
        want = gammaln(np.arange(max(sizes) + 1) + 1.0)
        top = max(sizes).bit_length()
        bad = []

        def grow(n):
            for m in [*range(n % 7 + 1, n, max(n // 5, 1)), n]:
                if not np.array_equal(_log_factorials(m), want[: m + 1]):
                    bad.append(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                _log_factorial_level.cache_clear()
                threads = [threading.Thread(target=grow, args=(n,)) for n in sizes]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert bad == []
                assert _log_factorial_level.cache_info().currsize == top + 1
                assert np.array_equal(_log_factorial_level(top)[: max(sizes) + 1], want)
        finally:
            sys.setswitchinterval(interval)

    def test_log_factorials_form_each_entry_once(self, monkeypatch):
        # every level appends only its top half to the one below
        formed = []

        def counted(start, stop):
            formed.append(stop - start)
            return _log_factorial_range(start, stop)

        monkeypatch.setattr(oracle, "_log_factorial_range", counted)
        _log_factorial_level.cache_clear()
        for n in (5, 700, 20_000, 3, 20_000):
            assert np.array_equal(_log_factorials(n), gammaln(np.arange(n + 1) + 1.0)), n
        assert sum(formed) == 32_768


class TestBruteforce:
    """The type-class oracle against the exhaustive reference in bruteforce.py."""

    def test_matches_bernoulli(self):
        pair_b = BernoulliPair(0.3, 0.6)
        pair_d = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        for n, eps in ((1, 0.5), (6, 0.13), (10, 0.04), (60, 0.01)):
            a = np_exact_bernoulli(pair_b, n, math.log(eps))
            b = np_exact_discrete(pair_d, n, math.log(eps))
            assert b.beta == pytest.approx(a.beta, rel=1e-11, abs=0.0)
            if n <= 10:
                assert np_exact_discrete_bruteforce(pair_d, n, eps).beta == pytest.approx(
                    b.beta, abs=1e-12
                )

    def test_bernoulli_pair_is_its_two_atom_record(self):
        # A Bernoulli pair reads as (1 - p, p): the same result, to the bit, as
        # the K = 2 pair built by hand, mirrored or not, at eps = 1 and eps = 0
        cells = ((0.3, 0.6, 60, math.log(0.01)), (0.8, 0.6, 500, -30.0),
                 (1e-300, 0.5, 20, -1.0), (0.5, 0.51, 2000, -1e-13),
                 (0.6, 0.3, 7, 0.0), (0.9, 0.2, 40, -math.inf))
        for p0, p1, n, log_eps in cells:
            two_atoms = FiniteDiscretePair((1.0 - p0, p0), (1.0 - p1, p1))
            want = np_exact_discrete(two_atoms, n, log_eps)
            assert repr(np_exact_discrete(BernoulliPair(p0, p1), n, log_eps)) == repr(want)
        with pytest.raises(DomainError, match=r"needs C\(n \+ 1, 1\) types at n = 2500000;"):
            np_exact_discrete(BERN, 2_500_000, -1.0)

    def test_eps_zero_accepts_always(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        assert np_exact_discrete_bruteforce(pair, 3, 0.0).beta == 1.0
        r = np_exact_discrete(pair, 3, -math.inf)
        assert (r.beta, r.log_beta, r.randomization) == (1.0, 0.0, 0.0)

    def test_eps_one_rejects_always(self):
        pair = FiniteDiscretePair((0.7, 0.3), (0.4, 0.6))
        assert np_exact_discrete_bruteforce(pair, 3, 1.0).threshold == -math.inf
        r = np_exact_discrete(pair, 3, 0.0)
        assert (r.beta, r.log_beta, r.threshold) == (0.0, -math.inf, -math.inf)

    def test_identical_pair_is_diagonal(self):
        pair = FiniteDiscretePair((0.3, 0.7), (0.3, 0.7))
        for eps in (0.0, 0.25, 0.8):
            r = np_exact_discrete(pair, 4, math.log(eps) if eps else -math.inf)
            assert r.beta == pytest.approx(1.0 - eps, rel=1e-14, abs=0.0)
            assert np_exact_discrete_bruteforce(pair, 4, eps).beta == pytest.approx(
                1.0 - eps, abs=1e-12
            )

    def test_three_symbol_randomization(self):
        pair = FiniteDiscretePair((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
        r = np_exact_discrete(pair, 5, math.log(0.123))
        ref = np_exact_discrete_bruteforce(pair, 5, 0.123)
        assert 0.0 < r.randomization < 1.0
        assert (r.beta, r.threshold, r.randomization) == pytest.approx(
            (ref.beta, ref.threshold, ref.randomization), rel=1e-12, abs=0.0
        )

    def test_size_limits(self):
        with pytest.raises(DomainError, match=r"needs C\(n \+ 2, 2\) types at n = 2235;"):
            np_exact_discrete(FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)), 2235, -1.0)
        ten = FiniteDiscretePair((0.1,) * 10, (0.1,) * 10)
        with pytest.raises(DomainError):
            np_exact_discrete(ten, 20, -1.0)  # C(29, 9) = 1.0e7 types
        # K = 17: the count has 4,291 digits at n = 10^269, thousands of
        # characters once printed, and 4,787 at 10^300, past Python's
        # 4,300-digit int-to-str limit; the refusal prints none of them
        k17 = FiniteDiscretePair((1 / 17,) * 17, (0.5 / 16,) * 16 + (0.5,))
        for n, shown in ((10**269, "1e+269"), (10**300, "1e+300")):
            with pytest.raises(DomainError) as refusal:
                np_exact_discrete(k17, n, -1.0)
            assert str(refusal.value) == (f"np_exact_discrete needs C(n + 16, 16) types at "
                                          f"n = {shown}; ceiling is 2,500,000")

    def test_bernoulli_type_ceiling(self):
        # K = 2 has n + 1 types: np_exact_bernoulli refuses a pair where
        # np_exact_discrete would, before its eps = 1 answer
        with pytest.raises(DomainError, match=r"^np_exact_bernoulli needs C\(n \+ 1, 1\) types "
                                              "at n = 1000000000000; ceiling is 2,500,000$"):
            np_exact_bernoulli(BERN, 10**12, 0.0)

    def test_size_check_reach(self):
        # C(n + K - 1, K - 1) <= 2.5e6, with K counting only atoms of positive mass;
        # the check alone, so no types are enumerated
        three = _tilt_atoms(FiniteDiscretePair((0.2, 0.3, 0.5, 0.0), (0.5, 0.3, 0.2, 0.0)),
                            Direction.FORWARD)
        _check_type_count(len(three.p), 2234)  # 2,498,730 types
        with pytest.raises(DomainError):
            _check_type_count(len(three.p), 2235)
        four = _tilt_atoms(FiniteDiscretePair((0.25,) * 4, (0.1, 0.2, 0.3, 0.4)), Direction.FORWARD)
        _check_type_count(len(four.p), 244)  # 2,481,115 types
        with pytest.raises(DomainError):
            _check_type_count(len(four.p), 245)

    def test_validation(self):
        with pytest.raises(DomainError, match="requires a finite-support pair"):
            np_exact_discrete(GAUSS, 3, -1.0)


def _types(n, k):
    # every count vector of length k summing to n
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _types(n - c, k - 1):
            yield (c, *rest)


def _classes(p0, p1, n):
    # (likelihood ratio, P0, P1) of each class of equal ratio, in
    # decreasing ratio, in exact rational arithmetic
    classes = {}
    for t in _types(n, len(p0)):
        mult = math.prod(math.comb(sum(t[i:]), c) for i, c in enumerate(t))
        m0 = mult * math.prod(a**c for a, c in zip(p0, t))
        m1 = mult * math.prod(b**c for b, c in zip(p1, t))
        acc = classes.setdefault(m1 / m0, [Fraction(0), Fraction(0)])
        acc[0] += m0
        acc[1] += m1
    return [(lr, *classes[lr]) for lr in sorted(classes, reverse=True)]


def _discrete_exact(p0, p1, n, eps):
    # beta of the NP test: classes rejected in decreasing ratio until eps
    budget, beta = eps, Fraction(1)
    for _, m0, m1 in _classes(p0, p1, n):
        take = min(budget, m0)
        beta -= take / m0 * m1
        budget -= take
    return beta


class TestTypeClasses:
    """np_exact_discrete against exact rational references and the brute force."""

    # (p0, p1) with rational atoms: likelihood ratios 1/3, 1, 3 (many tied
    # classes), 1/5, 1, 3 (no ties) and dyadic ones whose class masses are
    # exact floats
    PAIRS = tuple(
        tuple(tuple(map(Fraction, p.split())) for p in pq)
        for pq in (("1/2 1/3 1/6", "1/6 1/3 1/2"), ("1/2 3/10 1/5", "1/10 3/10 3/5"),
                   ("1/2 1/4 1/4", "1/4 1/4 1/2"))
    )

    @staticmethod
    def _check(p0, p1, n, eps, log_eps):
        pair = FiniteDiscretePair(tuple(map(float, p0)), tuple(map(float, p1)))
        beta = _discrete_exact(p0, p1, n, eps)
        r = np_exact_discrete(pair, n, log_eps)
        assert r.log_beta == pytest.approx(math.log(beta), rel=1e-13, abs=1e-16), (p0, n, eps)
        assert r.beta == pytest.approx(float(beta), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("pair", range(3))
    @pytest.mark.parametrize("n", (1, 5, 12))
    def test_matches_rational_reference(self, pair, n):
        p0, p1 = self.PAIRS[pair]
        for eps in (Fraction(1, 100), Fraction(1, 3), Fraction(9, 10)):
            self._check(p0, p1, n, eps, math.log(eps))
        # within 1e-6 of 1, where beta lives in the last accepted classes
        self._check(p0, p1, n, 1 - Fraction(1, 10**6), math.log1p(-1e-6))

    @pytest.mark.parametrize("n", (1, 4, 12))
    def test_eps_on_a_class_boundary(self, n):
        # Dyadic atoms: the P0 mass of the top classes is an exact float,
        # and eps set to it is a point where the randomization switches class.
        p0, p1 = self.PAIRS[2]
        cum = Fraction(0)
        for _, m0, _ in _classes(p0, p1, n)[:-1]:
            cum += m0
            assert float(cum) == cum
            self._check(p0, p1, n, cum, math.log(cum))

    def test_renormalizes_the_vectors(self):
        # A pair's vectors may miss 1 by up to 1e-12, which over n = 500
        # draws would move beta by 4e-10; the oracle tests p / sum(p).
        pair = FiniteDiscretePair((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
        s = 1.0 + 8e-13
        scaled = FiniteDiscretePair(tuple(s * m for m in pair.p0), tuple(s * m for m in pair.p1))
        for log_eps in (math.log(0.01), math.log(0.9), -1e-8):
            want = np_exact_discrete(pair, 500, log_eps).beta
            assert np_exact_discrete(scaled, 500, log_eps).beta == pytest.approx(
                want, rel=1e-12, abs=0.0
            )

    def test_far_below_linear_eps(self):
        # log eps = -737 (eps = 1e-320): the linear-space brute force sees no
        # budget at all, while log beta = -eps times the top class's ratio 6^5,
        # a subnormal float good to about 1e-7 relative.
        pair = FiniteDiscretePair((0.7, 0.2, 0.1), (0.1, 0.3, 0.6))
        assert np_exact_discrete_bruteforce(pair, 5, math.exp(-737.0)).beta == 1.0
        r = np_exact_discrete(pair, 5, -737.0)
        assert math.isfinite(r.log_beta) and r.log_beta < 0.0
        assert math.log(-r.log_beta) == pytest.approx(-737.0 + 5 * math.log(6.0), abs=1e-6)
        assert r.threshold == pytest.approx(5 * math.log(6.0), rel=1e-14, abs=0.0)


# A K-atom vector of positive weights, renormalized within the pair's 1e-12.
_weights = st.lists(st.floats(min_value=0.02, max_value=1.0), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    _weights,
    _weights,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1.0),
)
# eps = 1 rejects all 729 points: beta is exactly 0, where 1 minus their
# summed P1 mass is 1.25e-14
@example(w0=[1.0] * 4, w1=[1.0] * 4, k=3, n=6, eps=1.0)
def test_matches_bruteforce(w0, w1, k, n, eps):
    # The brute force sums in linear space and takes beta from the smaller
    # of its kept and rejected P1 masses, as the oracle does; its budget
    # still moves in linear steps, so it is a 1e-9 reference only above 1e-5.
    p0 = tuple(w / math.fsum(w0[:k]) for w in w0[:k])
    p1 = tuple(w / math.fsum(w1[:k]) for w in w1[:k])
    pair = FiniteDiscretePair(p0, p1)
    ref = np_exact_discrete_bruteforce(pair, n, eps)
    r = np_exact_discrete(pair, n, math.log(eps) if eps else -math.inf)
    assert r.beta == pytest.approx(ref.beta, rel=1e-9, abs=1e-14)


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


# Every oracle stores log beta alone, and beta = exp(log beta), bit for bit.
# The Bernoulli oracle is left out here: its log beta is still formed from
# the rejected P1 mass (ROADMAP 2(a)), so its cells are checked elsewhere.
REPRODUCE_GAUSSIANS = ("gaussian:2,0.05", "gaussian:2,0.1", "gaussian:2,0.3")


def _beta_is_exp_log_beta(oracle, pair, budgets):
    """The (n, log eps) of ``budgets`` where beta != exp(log beta)."""
    return [(n, log_eps) for n, log_eps in budgets
            if (r := oracle(pair, n, log_eps)).beta != math.exp(r.log_beta)]


class TestBetaFromLogBeta:
    @pytest.mark.parametrize("spec", REPRODUCE_GAUSSIANS)
    def test_gaussian(self, spec):
        # Every cell of the pair's three reproduce tables, then deep-tail
        # rows: beta near 1 at tiny eps, and far below the float range at large n.
        pair = parse_pair(spec)
        c = 20.0 * kl_divergence(pair, Direction.REVERSE)
        budgets = [(n, eps_at(regime, n)[1])
                   for regime in (Constant(0.01), Linear(), Exponential(c)) for n in DEFAULT_N]
        budgets += [(n, log_eps) for n in (1, 10, 1000, 100_000)
                    for log_eps in (-50.0, -700.0, -745.0, -1e3, -5e3, -1e4)]
        assert _beta_is_exp_log_beta(np_exact_gaussian, pair, budgets) == []

    @pytest.mark.parametrize("spec", ["discrete:0.4,0.6|0.6,0.4",
                                      "discrete:0.2,0.3,0.5|0.4,0.4,0.2"])
    def test_discrete(self, spec):
        budgets = [(n, log_eps) for n in (1, 10, 100, 400)
                   for log_eps in (math.log(0.5), math.log(0.01), -50.0, -1e3)]
        assert _beta_is_exp_log_beta(np_exact_discrete, parse_pair(spec), budgets) == []
