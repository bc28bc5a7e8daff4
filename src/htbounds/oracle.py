"""Exact Neyman-Pearson optima for the supported families.

beta_n(eps) computed in closed form (Gaussian), by binomial tail
inversion (Bernoulli, over the counts from the P0 mean up unless eps
exceeds the P0 tail there), or over the types of the sample (finite
support: an i.i.d. sample's likelihood ratio depends only on its atom
counts, so C(n + K - 1, K - 1) types stand in for K^n points; past 2.5e6
types, K = 3 beyond n = 2,234 or K = 4 beyond n = 244, it raises
:class:`SizeError`).  Both count-based oracles take log k! from one
cached read-only table.  These serve as ground truth for the bounds in
:mod:`htbounds.bounds`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import BernoulliPair, FiniteDiscretePair, GaussianPair
from .numerics import (DomainError, _check_log_eps, _check_log_prob, _check_n, log_diff_exp,
                       log_q, q_function, q_inverse_log)

__all__ = [
    "NPResult",
    "SizeError",
    "check_type_count",
    "np_exact_bernoulli",
    "np_exact_discrete",
    "np_exact_gaussian",
]

# Type ceiling of np_exact_discrete: K = 3 at n = 2,000 (2,003,001 types) fits in ~200 MB.
_MAX_TYPES = 2_500_000


class SizeError(ValueError):
    """Type-class enumeration would exceed the size ceiling."""


@dataclass(frozen=True)
class NPResult:
    """An exact optimal test and its errors.

    The optimal test rejects H0 when the statistic exceeds ``threshold``,
    randomizing with probability ``randomization`` on a tie.
    ``achieved_alpha`` is its exact Type I error (== eps up to rounding).
    """

    beta: float
    log_beta: float
    threshold: float
    randomization: float
    achieved_alpha: float


@functools.lru_cache(maxsize=1)
def _log_factorial_table(size: int) -> np.ndarray:
    table = gammaln(np.arange(size) + 1.0)
    table.flags.writeable = False
    return table


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n: a read-only view of one cached table.

    The table's size is rounded up to a power of two, so a run of growing
    n rebuilds it only when n crosses one.
    """
    return _log_factorial_table(1 << int(n).bit_length())[: n + 1]


def np_exact_gaussian(pair: GaussianPair, n: int, log_eps: float) -> NPResult:
    """Closed-form optimum: reject when the sample mean crosses a z-threshold.

    beta = Q(sqrt(n) |delta| / sigma - Q^{-1}(eps)).  For delta < 0 the
    optimal test accepts above the threshold and rejects below; the
    reported threshold is the critical sample-mean value either way.
    """
    if not isinstance(pair, GaussianPair):
        raise DomainError("np_exact_gaussian requires a GaussianPair")
    _check_n(n)
    _check_log_eps(log_eps)
    xq = q_inverse_log(log_eps)
    arg = math.sqrt(n) * abs(pair.delta) / pair.sigma - xq
    offset = pair.sigma * xq / math.sqrt(n)
    threshold = pair.mu + offset if pair.delta > 0 else pair.mu - offset
    return NPResult(
        beta=q_function(arg),
        log_beta=log_q(arg),
        threshold=threshold,
        randomization=0.0,
        achieved_alpha=math.exp(log_eps),
    )


def np_exact_bernoulli(pair: BernoulliPair, n: int, log_eps: float) -> NPResult:
    """Randomized LLRT on the success count S ~ Binomial(n, p).

    Rejects H0 when S > k, with probability gamma at S == k, where k and
    gamma are chosen so the Type I error is exactly eps.  Only counts
    S >= k enter beta.  The P0 tail is summed from S = n down to the P0
    mean floor(n p0), which k exceeds unless eps >= P0(S >= mean); only
    then are the counts below the mean formed.  log k! comes from the
    shared table of :func:`_log_factorials`.
    """
    if not isinstance(pair, BernoulliPair):
        raise DomainError("np_exact_bernoulli requires a BernoulliPair")
    _check_n(n)
    _check_log_prob("log_eps", log_eps)
    p0, p1 = pair.p0, pair.p1
    mirrored = p1 < p0  # LR increases in S iff p1 > p0; otherwise test on n - S
    if mirrored:
        p0, p1 = 1.0 - p0, 1.0 - p1
    if log_eps == 0.0:
        # eps = 1: reject always
        return NPResult(0.0, -math.inf, -1.0 if not mirrored else float(n + 1), 0.0, 1.0)
    log_fact = _log_factorials(n)

    def counts(a: int, b: int):
        # s = a..b-1 with log C(n, s) and log P0(S = s)
        s = np.arange(a, b)
        log_binom = log_fact[-1] - log_fact[a:b] - log_fact[::-1][a:b]
        return s, log_binom, log_binom + s * math.log(p0) + (n - s) * math.log1p(-p0)

    # Counts from the P0 mean lo = floor(n p0) up, with tail0[i] =
    # log P0(S >= lo + i) summed from S = n down.  The tail only grows as
    # i falls, so unless eps >= P0(S >= lo) the boundary class lies above lo.
    lo = int(n * p0)
    s, log_binom, lp0 = counts(lo, n + 1)
    tail0 = np.logaddexp.accumulate(lp0[::-1])[::-1]
    if lo and log_eps >= tail0[0]:
        # Carry the tail on down to S = 0 from tail0[0], so that its bits are
        # those of one pass from S = n.
        s_lo, log_binom_lo, lp0_lo = counts(0, lo)
        tail0_lo = np.logaddexp.accumulate(np.append(tail0[0], lp0_lo[::-1]))[:0:-1]
        s, log_binom, lp0, tail0 = (
            np.concatenate(parts)
            for parts in ((s_lo, s), (log_binom_lo, log_binom), (lp0_lo, lp0), (tail0_lo, tail0))
        )
        lo = 0
    tail0 = np.append(tail0, -math.inf)
    if lo == 0:
        tail0[0] = 0.0
    i = int(np.argmax(tail0 <= log_eps)) - 1  # smallest j with P0(S >= lo + j) <= eps, less 1
    k = lo + i
    # P1 only from the boundary class up: lp1[m] = log P1(S = k + m), and
    # tail1 = log P1(S > k), summed from S = n down (-inf when k == n).
    lp1 = log_binom[i:] + s[i:] * math.log(p1) + (n - s[i:]) * math.log1p(-p1)
    tail1 = np.logaddexp.reduce(lp1[:0:-1])
    log_excess = log_diff_exp(log_eps, tail0[i + 1]) if log_eps > tail0[i + 1] else -math.inf
    if log_excess > lp0[i]:  # gamma > 1: only rounding can pick such a k
        raise DomainError(
            "np_exact_bernoulli: rounding in the log P0 tail puts the tie "
            f"randomization above 1 (n = {n}, log_eps = {log_eps!r}); eps is too close to 1"
        )
    gamma = math.exp(log_excess - lp0[i]) if log_excess > -math.inf else 0.0
    log_accept1 = np.logaddexp(tail1, math.log(gamma) + lp1[0]) if gamma > 0.0 else tail1
    beta = -math.expm1(log_accept1)
    log_beta = log_diff_exp(0.0, log_accept1) if log_accept1 < 0.0 else -math.inf
    threshold = float(n - k) if mirrored else float(k)
    return NPResult(beta, log_beta, threshold, gamma, math.exp(log_eps))


def check_type_count(pair: FiniteDiscretePair, n: int) -> None:
    """Raise SizeError if n-samples on the support of ``pair`` have over 2.5e6 types."""
    k = sum(1 for m in pair.p0 if m > 0.0)
    if (count := math.comb(n + k - 1, k - 1)) > _MAX_TYPES:
        raise SizeError(f"np_exact_discrete needs {count:,} types at n = {n}; "
                        f"ceiling is {_MAX_TYPES:,}")


def np_exact_discrete(pair: FiniteDiscretePair, n: int, log_eps: float) -> NPResult:
    """Randomized LLRT over the types of an i.i.d. finite-support sample.

    Whole types are rejected in decreasing order of their log-LR
    c . (log p1 - log p0) until their P0 mass reaches eps; types whose
    log-LR agree to within 1e-10 form one randomization class.  The
    threshold is the log-LR of the boundary class (-inf when every sample
    is rejected).  Both vectors are renormalized to sum to 1.
    """
    if not isinstance(pair, FiniteDiscretePair):
        raise DomainError("np_exact_discrete requires a FiniteDiscretePair")
    _check_n(n)
    _check_log_prob("log_eps", log_eps)
    check_type_count(pair, n)
    p0, p1 = ([m for m in p if m > 0.0] for p in (pair.p0, pair.p1))
    la0 = np.log(p0) - math.log(math.fsum(p0))
    d = np.log(p1) - math.log(math.fsum(p1)) - la0
    log_fact = _log_factorials(n)
    # Grow the types one coordinate at a time (r counts left: r + 1 children),
    # carrying log P0 = log n! - sum log c! + c . log p0 and the log-LR.
    rem, lp0, llr = np.array([n]), np.array([log_fact[n]]), np.zeros(1)
    for j in range(la0.size - 1):
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
    return NPResult(math.exp(log_beta), log_beta, threshold, gamma, math.exp(log_eps))
