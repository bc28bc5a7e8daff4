"""Exact Neyman-Pearson optima for the supported families.

beta_n(eps) computed in closed form (Gaussian), by binomial tail
inversion (Bernoulli), or by brute-force enumeration of the product
sample space (small finite-support problems).  These serve as ground
truth for the bounds in :mod:`htbounds.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import BernoulliPair, FiniteDiscretePair, GaussianPair
from .numerics import DomainError, log_diff_exp, log_q, q_function, q_inverse_log

__all__ = [
    "NPResult",
    "SizeError",
    "check_bruteforce_size",
    "np_exact_bernoulli",
    "np_exact_discrete_bruteforce",
    "np_exact_gaussian",
]

# Enumeration ceilings for the brute-force oracle.
_MAX_N = 14
_MAX_POINTS = 10_000_000


class SizeError(ValueError):
    """Brute-force enumeration would exceed the size ceiling."""


@dataclass(frozen=True)
class NPResult:
    """An exact optimal test and its errors.

    The optimal test rejects H0 when the statistic exceeds ``threshold``,
    randomizing with probability ``randomization`` on a tie.
    ``achieved_alpha`` is its exact Type I error (== eps unless eps is
    unreachable, e.g. deterministic tests on discrete samples).
    """

    beta: float
    log_beta: float
    threshold: float
    randomization: float
    achieved_alpha: float


def _check_n(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def np_exact_gaussian(pair: GaussianPair, n: int, log_eps: float) -> NPResult:
    """Closed-form optimum: reject when the sample mean crosses a z-threshold.

    beta = Q(sqrt(n) |delta| / sigma - Q^{-1}(eps)).  For delta < 0 the
    optimal test accepts above the threshold and rejects below; the
    reported threshold is the critical sample-mean value either way.
    """
    if not isinstance(pair, GaussianPair):
        raise DomainError("np_exact_gaussian requires a GaussianPair")
    _check_n(n)
    if not (isinstance(log_eps, (int, float)) and math.isfinite(log_eps) and log_eps < 0.0):
        raise DomainError(f"log_eps must be finite and < 0, got {log_eps!r}")
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


def np_exact_bernoulli(
    pair: BernoulliPair, n: int, log_eps: float, deterministic: bool = False
) -> NPResult:
    """Randomized LLRT on the success count S ~ Binomial(n, p).

    Rejects H0 when S > k, with probability gamma at S == k, where k and
    gamma are chosen so the Type I error is exactly eps.  With
    ``deterministic`` the tie randomization is dropped (gamma = 0) and
    achieved_alpha falls to P0(S > k).
    """
    if not isinstance(pair, BernoulliPair):
        raise DomainError("np_exact_bernoulli requires a BernoulliPair")
    _check_n(n)
    if not (isinstance(log_eps, (int, float)) and log_eps <= 0.0 and not math.isnan(log_eps)):
        raise DomainError(f"log_eps must lie in [-inf, 0], got {log_eps!r}")
    p0, p1 = pair.p0, pair.p1
    mirrored = p1 < p0  # LR increases in S iff p1 > p0; otherwise test on n - S
    if mirrored:
        p0, p1 = 1.0 - p0, 1.0 - p1
    ks = np.arange(n + 1)
    log_fact = gammaln(ks + 1)
    log_binom = log_fact[-1] - log_fact - log_fact[::-1]
    lp0 = log_binom + ks * math.log(p0) + (n - ks) * math.log1p(-p0)
    # tail0[j] = log P0(S >= j), j = 0..n+1
    tail0 = np.append(np.logaddexp.accumulate(lp0[::-1])[::-1], -math.inf)
    tail0[0] = 0.0
    j = int(np.argmax(tail0 <= log_eps))  # smallest j with P0(S >= j) <= eps
    k = j - 1
    if k < 0:
        # eps = 1: reject always
        return NPResult(0.0, -math.inf, -1.0 if not mirrored else float(n + 1), 0.0, 1.0)
    # P1 only from the boundary class up: lp1[i] = log P1(S = k + i), and
    # tail1 = log P1(S > k), summed from S = n down (-inf when k == n).
    lp1 = log_binom[k:] + ks[k:] * math.log(p1) + (n - ks[k:]) * math.log1p(-p1)
    tail1 = np.logaddexp.reduce(lp1[:0:-1])
    if deterministic:
        gamma = 0.0
        log_alpha = tail0[k + 1]
        log_accept1 = tail1
    else:
        log_excess = log_diff_exp(log_eps, tail0[k + 1]) if log_eps > tail0[k + 1] else -math.inf
        if log_excess > lp0[k]:  # gamma > 1: only rounding can pick such a k
            raise DomainError(
                "np_exact_bernoulli: rounding in the log P0 tail puts the tie "
                f"randomization above 1 (n = {n}, log_eps = {log_eps!r}); eps is too close to 1"
            )
        gamma = math.exp(log_excess - lp0[k]) if log_excess > -math.inf else 0.0
        log_alpha = log_eps
        log_accept1 = np.logaddexp(tail1, math.log(gamma) + lp1[0]) if gamma > 0.0 else tail1
    beta = -math.expm1(log_accept1)
    log_beta = log_diff_exp(0.0, log_accept1) if log_accept1 < 0.0 else -math.inf
    threshold = float(n - k) if mirrored else float(k)
    return NPResult(beta, log_beta, threshold, gamma, math.exp(log_alpha))


def check_bruteforce_size(pair: FiniteDiscretePair, n: int) -> None:
    """Raise SizeError unless n <= 14 and K^n <= 1e7 for support size K."""
    k_sz = sum(1 for m in pair.p0 if m > 0.0)
    if n > _MAX_N or k_sz**n > _MAX_POINTS:
        raise SizeError(f"brute force needs {k_sz}^{n} sample points; ceiling is {_MAX_POINTS:g}")


def np_exact_discrete_bruteforce(
    pair: FiniteDiscretePair, n: int, eps: float, deterministic: bool = False
) -> NPResult:
    """Enumerate all K^n samples, sort by likelihood ratio, fill the budget.

    Exact randomized NP test for finite-support pairs; n <= 14 and
    K^n <= 1e7 enforced via SizeError.  Samples whose log-LR agree to
    within 1e-10 are merged into one randomization class.  The reported
    threshold is the log-LR of the boundary class (-inf when every
    sample is rejected).
    """
    if not isinstance(pair, FiniteDiscretePair):
        raise DomainError("np_exact_discrete_bruteforce requires a FiniteDiscretePair")
    _check_n(n)
    if not (isinstance(eps, (int, float)) and 0.0 <= eps <= 1.0):
        raise DomainError(f"eps must lie in [0, 1], got {eps!r}")
    check_bruteforce_size(pair, n)
    support = [i for i, m in enumerate(pair.p0) if m > 0.0]
    la0 = np.log([pair.p0[i] for i in support])
    la1 = np.log([pair.p1[i] for i in support])
    acc0 = np.zeros(1)
    acc1 = np.zeros(1)
    for _ in range(n):
        acc0 = (acc0[:, None] + la0[None, :]).ravel()
        acc1 = (acc1[:, None] + la1[None, :]).ravel()
    ratio = acc1 - acc0
    order = np.argsort(-ratio, kind="stable")
    r_sorted = ratio[order]
    m0 = np.exp(acc0[order])
    m1 = np.exp(acc1[order])
    # Merge ties: class boundary wherever the sorted log-LR drops by > 1e-10.
    new_class = np.empty(r_sorted.size, dtype=bool)
    new_class[0] = True
    new_class[1:] = (r_sorted[:-1] - r_sorted[1:]) > 1.0e-10
    cls = np.cumsum(new_class) - 1
    c0 = np.bincount(cls, weights=m0)
    c1 = np.bincount(cls, weights=m1)
    r_cls = r_sorted[new_class]
    budget = eps
    accepted1 = 0.0  # P1 mass of the rejection region
    achieved = 0.0
    threshold = -math.inf
    gamma = 0.0
    for i in range(c0.size):
        if budget >= c0[i] * (1.0 - 1.0e-12):
            budget -= c0[i]
            accepted1 += c1[i]
            achieved += c0[i]
            continue
        threshold = float(r_cls[i])
        if not deterministic and budget > 0.0 and c0[i] > 0.0:
            gamma = budget / c0[i]
            accepted1 += gamma * c1[i]
            achieved += budget
        break
    beta = max(1.0 - accepted1, 0.0)
    return NPResult(
        beta, math.log(beta) if beta > 0 else -math.inf, threshold, gamma, min(achieved, eps)
    )
