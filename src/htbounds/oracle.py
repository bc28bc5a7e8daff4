"""Exact Neyman-Pearson optima for the supported families.

beta_n(eps) computed in closed form (Gaussian), by binomial tail
inversion (Bernoulli: the P0 tail is summed from the last count whose
P0 mass is within C = 64 log 2 + log(n + 1) nats of L = log eps down to
the P0 mean, or to 0 when eps exceeds the P0 tail there, and the P1 tail
above the boundary count from the last count within C nats of its
largest term L, so that each dropped mass is below 2^-64 of the tail it
belongs to; the log masses are formed only up to the count
n p + sqrt(n (C - L) / 2) + 2, past which Chernoff's bound with Pinsker's
inequality puts every mass more than C nats below L: 770 of the 20,001
counts for P0 at n = 20,000, eps = 0.01), or over the types of the
sample (finite support: an i.i.d. sample's likelihood ratio depends only
on its atom counts, so C(n + K - 1, K - 1) types stand in for K^n points).
Both count-based oracles refuse more than 2.5e6 types with
:class:`DomainError`, as at every other limit, so a sweep leaves that
cell empty: K = 2 (a Bernoulli pair) beyond n = 2,499,999, K = 3 beyond
n = 2,234, K = 4 beyond n = 244.  Both take log k!, cephes' lgam at the
integers, from one cache of read-only levels, the level of bits b holding
k = 0..2^b - 1, so the ceiling stops the largest level at 2^22 entries.
These serve as ground truth for the bounds in :mod:`htbounds.bounds`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import BernoulliPair, Direction, FiniteDiscretePair, GaussianPair, _tilt_atoms
from .numerics import (_LOG_SQRT_2PI, DomainError, _check_log_eps, _check_log_prob, _check_n,
                       log_diff_exp, log_q, q_inverse_log)

__all__ = [
    "NPResult",
    "np_exact_bernoulli",
    "np_exact_discrete",
    "np_exact_gaussian",
]

# Type ceiling of np_exact_discrete: K = 3 at n = 2,000 (2,003,001 types) fits in ~200 MB.
_MAX_TYPES = 2_500_000


@dataclass(frozen=True)
class NPResult:
    """An exact optimal test and its Type II error.

    The optimal test rejects H0 when the statistic exceeds ``threshold``,
    randomizing with probability ``randomization`` on a tie; its Type I
    error is the eps it was asked for.  Every oracle forms ``log_beta``
    alone, and ``beta`` is derived from it.
    """

    log_beta: float
    threshold: float
    randomization: float

    @property
    def beta(self) -> float:
        """exp(log_beta), capped at 1."""
        return math.exp(min(self.log_beta, 0.0))


#: Coefficients of cephes' lgam correction, a polynomial in 1 / x^2, for x = k + 1 >= 13.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
#: log k! for k + 1 < 13, where lgam takes the log of the exact product k!.
_LOG_SMALL_FACTORIALS = tuple(math.log(math.factorial(k)) for k in range(12))


def _log_factorial_range(start: int, stop: int) -> np.ndarray:
    """log k! for k = start..stop - 1, the bits of ``scipy.special.gammaln(k + 1.0)``.

    It follows cephes' ``lgam`` at x = k + 1: log of the exact product k!
    below x = 13, and above it (x - 1/2) log x - x + log sqrt(2 pi) plus
    the correction over x, a polynomial in 1 / x^2.  From x = 1000 lgam
    swaps that polynomial for three Stirling terms (and past x = 1e8,
    beyond every level, drops the correction).  The swap moves no bit of
    any log k! with k < 2^23: there the two corrections over x differ by
    at most 1.4e-19, against a ulp of log k! of at least 9.1e-13, and the
    type ceiling stops the levels at 2^22 entries.  The arithmetic is
    numpy's, in place and in lgam's order, which rounds as C does.  log x
    is ``math.log`` (libm's) of the integer x, which below 2^53 is that of
    its float, read with no per-entry Python list; ``np.log`` differs from
    libm on 232 of the integers in 1..2^22.
    """
    head = _LOG_SMALL_FACTORIALS[start:stop]
    ks = range(max(start, len(_LOG_SMALL_FACTORIALS)) + 1, stop + 1)
    x = np.arange(ks.start, ks.stop, dtype=float)
    tail = np.fromiter(map(math.log, ks), float, len(ks))
    p = 1.0 / (x * x)
    poly = np.full_like(x, _LGAM_A[0])
    for a in _LGAM_A[1:]:
        poly *= p
        poly += a
    # (x - 0.5) log x - x + LS2PI + poly / x, left to right; cephes'
    # LS2PI, 0.91893853320467274178, is the same double as _LOG_SQRT_2PI
    tail *= np.subtract(x, 0.5, out=p)
    tail -= x
    tail += _LOG_SQRT_2PI
    tail += np.divide(poly, x, out=poly)
    return np.concatenate((head, tail))


@functools.lru_cache(maxsize=None)
def _log_factorial_level(bits: int) -> np.ndarray:
    """log k! for k = 0..2^bits - 1, read-only: the level below with its top half appended.

    Each level is built once per process from the one below, so each
    entry is computed once (about 0.12 us each on a 2-core Xeon VM, 2^14
    to 2^20 entries a level), and no level is written after it is built:
    threads share the levels with no lock, and a view of one keeps its
    values.
    """
    below = _log_factorial_level(bits - 1) if bits else np.zeros(0)
    level = np.concatenate((below, _log_factorial_range(below.size, 1 << bits)))
    level.flags.writeable = False
    return level


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n: a read-only view of the level of 2^bit_length(n) entries."""
    return _log_factorial_level(int(n).bit_length())[: n + 1]


def np_exact_gaussian(pair: GaussianPair, n: int, log_eps: float) -> NPResult:
    """Closed-form optimum: reject when the sample mean crosses a z-threshold.

    beta = Q(sqrt(n) |delta| / sigma - Q^{-1}(eps)), formed as log Q.  For
    delta < 0 the optimal test accepts above the threshold and rejects
    below; the reported threshold is the critical sample-mean value either
    way.
    """
    if not isinstance(pair, GaussianPair):
        raise DomainError("np_exact_gaussian requires a GaussianPair")
    _check_n(n)
    _check_log_eps(log_eps)
    xq = q_inverse_log(log_eps)
    arg = math.sqrt(n) * abs(pair.delta) / pair.sigma - xq
    offset = pair.sigma * xq / math.sqrt(n)
    threshold = pair.mu + offset if pair.delta > 0 else pair.mu - offset
    return NPResult(log_q(arg), threshold, 0.0)


def np_exact_bernoulli(pair: BernoulliPair, n: int, log_eps: float) -> NPResult:
    """Randomized LLRT on the success count S ~ Binomial(n, p).

    Rejects H0 when S > k, with probability gamma at S == k, where k and
    gamma are chosen so the Type I error is exactly eps.  Only counts
    S >= k enter beta.  log k! comes from the cached levels of
    :func:`_log_factorials`.  The n + 1 counts are the types of K = 2, so
    past n = 2,499,999 it raises :class:`DomainError` at the type ceiling
    of :func:`np_exact_discrete`, which bounds the levels' memory.

    Neither tail is summed from S = n.  The P0 tail starts at the last
    count m with log P0(S = m) >= log eps - C, and the P1 tail P1(S > k)
    at the last count m with log P1(S = m) >= log P1(S = q) - C, where
    q = max(k + 1, P1 mode) holds the largest P1 term above k.  Both
    counts come from a binary search, since past the mode a binomial pmf b
    falls: its step ratio r(s) = b(s + 1) / b(s) = (n - s) p / ((s + 1)(1 - p))
    decreases in s (b is log-concave), and above the mode floor((n + 1) p)
    1 - r(s) = (s + 1 - (n + 1) p) / ((s + 1)(1 - p)) > 1 / (n + 1).  So
    the mass the chain drops is a geometric tail,

        sum_{s > m} b(s) <= b(m + 1) / (1 - r(m + 1)) < (n + 1) e^{L - C},

    with L = log eps for P0 and L = log P1(S = q) for P1.  The margin
    C = 64 log 2 + log(n + 1) (54.3 nats at n = 20,000) puts the dropped
    mass below 2^-64 e^L, so below 2^-64 of the smallest tail the oracle
    reads: e^L = eps < P0(S >= k), and the boundary-class share
    gamma P0(k) = eps - P0(S > k) moves by less than 2^-64 eps; e^L =
    P1(S = q) <= P1(S > k).  Every count from the P0 mean to its mode
    holds more than e^-C, so the P0 cut lies past the mode.  2^-64 is
    2^-11 of a double's relative rounding step: on every cell tested the
    shortened chains reach the bits of the full ones before the counts
    the oracle reads, and ``tests/test_oracle.py`` checks every field
    against the sums over all n + 1 counts.

    Nor are log masses formed past the cuts.  By Chernoff's bound and
    Pinsker's inequality D(s/n || p) >= 2 (s/n - p)^2, every count s >= n p
    has

        b(s) <= P(S >= s) <= e^{-n D(s/n || p)} <= e^{-2 (s - n p)^2 / n},

    so every count beyond n p + sqrt(n (C - L) / 2) holds less than
    e^{L - C} and lies past the cut.  The P0 masses are formed from the P0
    mean floor(n p0) up to that end with L = log eps (770 counts at
    n = 20,000, eps = 0.01), and the P1 masses from k up to it with
    L = log P1(S = q), formed first as a window of one count.  Each
    window runs 2 counts further, so at its first unformed count the
    bound lies more than 8 sqrt(C / 2n) nats below L - C (0.29
    at n = 20,000), far beyond the rounding of the log masses (about
    1e-16 log n! nats, 2e-11 at n = 20,000).  So each binary search finds
    the cut it would find over all n + 1 counts, and each chain sums the
    same terms.  The boundary class lies above the P0 mean unless
    eps >= P0(S >= mean); only then are the P0 masses formed again from
    S = 0 and summed down in one pass, which gives the bits of carrying
    the tail on down from the mean, since an accumulation is sequential.
    """
    if not isinstance(pair, BernoulliPair):
        raise DomainError("np_exact_bernoulli requires a BernoulliPair")
    _check_n(n)
    _check_log_prob("log_eps", log_eps)
    _check_type_count(2, n, "np_exact_bernoulli")
    p0, p1 = pair.p0, pair.p1
    mirrored = p1 < p0  # LR increases in S iff p1 > p0; otherwise test on n - S
    if mirrored:
        p0, p1 = 1.0 - p0, 1.0 - p1
    if log_eps == 0.0:
        # eps = 1: reject always
        return NPResult(-math.inf, -1.0 if not mirrored else float(n + 1), 0.0)
    if p1 == 1.0:  # 1 - p rounds to 1 for p <= 2^-54: the mirrored count has no log-mass
        raise DomainError(f"np_exact_bernoulli: 1 - {pair.p1!r} rounds to 1 on the mirrored "
                          "pair; the oracle needs min(p0, p1) above 2^-54")
    log_fact = _log_factorials(n)
    # Past the mode, the binomial tail beyond the last count within this
    # many nats of a term holds less than 2^-64 of that term (see the docstring).
    cut = 64.0 * math.log(2.0) + math.log(n + 1.0)
    logs0, logs1 = (math.log(p0), math.log1p(-p0)), (math.log(p1), math.log1p(-p1))

    def log_pmf(logs: tuple[float, float], a: int, b: int) -> np.ndarray:
        # log P(S = s) for s = a..b-1 from logs = (log p, log(1 - p)); floats hold s exactly
        s = np.arange(a, b, dtype=float)
        return log_fact[-1] - log_fact[a:b] - log_fact[::-1][a:b] + s * logs[0] + (n - s) * logs[1]

    def window_end(p: float, log_top: float) -> int:
        # One past the last count that can hold log_top - cut, plus 2 (see the docstring).
        return int(min(n + 1.0, n * p + math.sqrt(0.5 * n * (cut - log_top)) + 3.0))

    # P0 masses from the mean lo = floor(n p0) up; rise0[j] = log P0(S >= top0 - 1 - j),
    # summed down from the last count top0 - 1 within cut of log eps.
    lo = int(n * p0)
    lp0 = log_pmf(logs0, lo, window_end(p0, log_eps))
    top0 = lo + int((-lp0).searchsorted(cut - log_eps, side="right"))
    rise0 = np.logaddexp.accumulate(lp0[: top0 - lo][::-1])
    if lo and log_eps >= rise0[-1]:
        # eps >= P0(S >= lo): the boundary class lies below the mean.
        lo = 0
        lp0 = log_pmf(logs0, 0, top0)
        rise0 = np.logaddexp.accumulate(lp0[::-1])
    # k is the largest count with P0(S >= k) > eps, counting P0(S >= 0) as 1
    # whatever the rounded sum; log_above = log P0(S > k).
    k = max(top0 - 1 - int(rise0.searchsorted(log_eps, side="right")), 0)
    log_above = float(rise0[top0 - k - 2]) if k + 1 < top0 else -math.inf
    # P1 masses from the boundary class up: lp1[m] = log P1(S = k + m), and
    # tail1 = log P1(S > k), summed down from the last count within cut of
    # its largest term, at q (-inf when k == n).
    q = min(max(int((n + 1) * p1), k + 1), n)
    # log P1(S = q) sets lp1's window end
    log_top1 = log_pmf(logs1, q, q + 1)[0]
    lp1 = log_pmf(logs1, k, window_end(p1, log_top1))
    top1 = q - k + int((-lp1[q - k :]).searchsorted(cut - log_top1, side="right"))
    tail1 = np.logaddexp.reduce(lp1[top1 - 1 : 0 : -1])
    log_excess = log_diff_exp(log_eps, log_above) if log_eps > log_above else -math.inf
    log_k0 = float(lp0[k - lo])  # log P0(S = k)
    if log_excess > log_k0:  # gamma > 1: only rounding can pick such a k
        raise DomainError(
            "np_exact_bernoulli: rounding in the log P0 tail puts the tie "
            f"randomization above 1 (n = {n}, log_eps = {log_eps!r}); eps is too close to 1"
        )
    gamma = math.exp(log_excess - log_k0) if log_excess > -math.inf else 0.0
    log_reject1 = np.logaddexp(tail1, math.log(gamma) + float(lp1[0])) if gamma > 0.0 else tail1
    log_beta = log_diff_exp(0.0, log_reject1) if log_reject1 < 0.0 else -math.inf
    threshold = float(n - k) if mirrored else float(k)
    return NPResult(log_beta, threshold, gamma)


def _check_type_count(k: int, n: int, oracle: str = "np_exact_discrete") -> None:
    """Raise DomainError if n-samples on a support of k atoms have over 2.5e6 types.

    The message names the count's formula, not its digits: at K = 17 and
    n = 10^275 the count has over 4,300 of them, past what Python formats
    as a string.  n is printed as a float, whose range
    :func:`htbounds.numerics._check_n` holds it to.
    """
    if math.comb(n + k - 1, k - 1) > _MAX_TYPES:
        raise DomainError(f"{oracle} needs C(n + {k - 1}, {k - 1}) types at n = {n:.15g}; "
                          f"ceiling is {_MAX_TYPES:,}")


def np_exact_discrete(pair: FiniteDiscretePair | BernoulliPair, n: int, log_eps: float) -> NPResult:
    """Randomized LLRT over the types of an i.i.d. finite-support sample.

    Whole types are rejected in decreasing order of their log-LR
    c . (log p1 - log p0) until their P0 mass reaches eps; types whose
    log-LR agree to within 1e-10 form one randomization class.  The
    threshold is the log-LR of the boundary class (-inf when every sample
    is rejected).  It reads the pair's forward record (both vectors
    renormalized to sum to 1): log p0 and z = log(p0 / p1) = -log-LR.
    A Bernoulli pair is its K = 2 record, (1 - p, p).
    """
    if isinstance(pair, GaussianPair):
        raise DomainError("np_exact_discrete requires a finite-support pair")
    _check_n(n)
    _check_log_prob("log_eps", log_eps)
    atoms = _tilt_atoms(pair, Direction.FORWARD)
    _check_type_count(len(atoms.p), n)
    la0, d = atoms.logp, [-x for x in atoms.z]
    log_fact = _log_factorials(n)
    # Grow the types one coordinate at a time (r counts left: r + 1 children),
    # carrying log P0 = log n! - sum log c! + c . log p0 and the log-LR.
    rem, lp0, llr = np.array([n]), np.array([log_fact[n]]), np.zeros(1)
    for j in range(len(la0) - 1):
        width = rem + 1
        c = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        lp0 = np.repeat(lp0, width) + (c * la0[j] - log_fact[c])
        llr = np.repeat(llr, width) + c * d[j]
        rem = np.repeat(rem, width) - c
    llr += rem * d[-1]
    order = np.argsort(-llr)
    llr, lp0 = llr[order], (lp0 + rem * la0[-1] - log_fact[rem])[order]
    starts = np.flatnonzero(np.concatenate(([True], llr[:-1] - llr[1:] > 1.0e-10)))
    lc0 = np.logaddexp.reduceat(lp0, starts)
    lc1 = np.logaddexp.reduceat(lp0 + llr, starts)
    # Boundary class b and the logs of its rejected and kept P0 shares,
    # gamma P0(b) and (1 - gamma) P0(b), filled from the end where the budget
    # is small (eps from the top, 1 - eps from the bottom) for relative accuracy.
    log_keep_eps = log_diff_exp(0.0, log_eps)
    if log_eps <= log_keep_eps:
        cum0 = np.logaddexp.accumulate(lc0)
        b = int(np.searchsorted(cum0, log_eps, side="right"))
        reject = min(log_diff_exp(log_eps, cum0[b - 1] if b else -math.inf), lc0[b])
        keep = log_diff_exp(lc0[b], reject)
    else:
        tail0 = np.append(np.logaddexp.accumulate(lc0[::-1])[::-1], -math.inf)
        b = int(np.count_nonzero(tail0[:-1] >= log_keep_eps)) - 1
        keep = min(log_diff_exp(log_keep_eps, tail0[b + 1]), lc0[b])
        reject = log_diff_exp(lc0[b], keep)
    # beta is the accepted P1 mass, or 1 minus the rejected one when that is
    # the smaller, so it keeps its relative accuracy as eps -> 0.
    log_reject1 = np.logaddexp(np.logaddexp.reduce(lc1[:b]), reject + lc1[b] - lc0[b])
    log_accept1 = np.logaddexp(np.logaddexp.reduce(lc1[b + 1 :]), keep + lc1[b] - lc0[b])
    log_beta = float(log_accept1 if log_accept1 <= log_reject1
                     else log_diff_exp(0.0, min(log_reject1, 0.0)))
    threshold = -math.inf if b == lc0.size - 1 and keep == -math.inf else float(llr[starts[b]])
    gamma = math.exp(reject - lc0[b])
    return NPResult(log_beta, threshold, gamma)
