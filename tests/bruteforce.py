"""Reference NP oracles for the tests.

``np_exact_discrete_bruteforce`` is the exhaustive oracle for finite-support
pairs.  It enumerates all K^n sample points, so keep K^n to a few million.
It takes eps in linear space, so it cannot see beta below about 1e-16 or
eps within 1e-16 of 0 or 1; ``htbounds.oracle.np_exact_discrete`` is
checked against it where both are exact.

``np_exact_bernoulli_fullrange`` is the binomial tail inversion over all
n + 1 counts; ``htbounds.oracle.np_exact_bernoulli``, which forms only the
counts it needs, must give the same bits and the same errors.
"""

import math

import numpy as np
from scipy.special import gammaln

from htbounds.numerics import DomainError, log_diff_exp
from htbounds.oracle import NPResult


def np_exact_discrete_bruteforce(pair, n: int, eps: float) -> NPResult:
    """Enumerate all K^n samples, sort by likelihood ratio, fill the budget.

    Samples whose log-LR agree to within 1e-10 are merged into one
    randomization class.  The reported threshold is the log-LR of the
    boundary class (-inf when every sample is rejected).
    """
    support = [i for i, m in enumerate(pair.p0) if m > 0.0]
    if len(support) ** n > 10_000_000:
        raise ValueError(f"brute force over {len(support)}^{n} sample points is too large")
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
    rejected1 = 0.0  # P1 mass of the rejection region
    kept1 = []  # P1 masses of the acceptance region
    threshold = -math.inf
    gamma = 0.0
    for i in range(c0.size):
        if budget >= c0[i] * (1.0 - 1.0e-12):
            budget -= c0[i]
            rejected1 += c1[i]
            continue
        threshold = float(r_cls[i])
        if budget > 0.0 and c0[i] > 0.0:
            gamma = budget / c0[i]
            rejected1 += gamma * c1[i]
        kept1 = [(1.0 - gamma) * c1[i], *c1[i + 1 :]]
        break
    # beta from the smaller side, as np_exact_discrete forms it: 1 minus a
    # rejected mass near 1 keeps the rounding of its sum, about 1e-14 over
    # 729 points (eps = 1 at K = 3, n = 6), where the kept mass is exactly 0
    if rejected1 <= 0.5:
        return NPResult(math.log1p(-rejected1), threshold, gamma)
    kept = math.fsum(kept1)
    return NPResult(math.log(kept) if kept > 0.0 else -math.inf, threshold, gamma)


def np_exact_bernoulli_fullrange(pair, n: int, log_eps: float) -> NPResult:
    """The randomized LLRT on the count S, with every count S = 0..n formed."""
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
        return NPResult(-math.inf, -1.0 if not mirrored else float(n + 1), 0.0)
    lp1 = log_binom[k:] + ks[k:] * math.log(p1) + (n - ks[k:]) * math.log1p(-p1)
    tail1 = np.logaddexp.reduce(lp1[:0:-1])
    log_excess = log_diff_exp(log_eps, tail0[k + 1]) if log_eps > tail0[k + 1] else -math.inf
    if log_excess > lp0[k]:  # gamma > 1: only rounding can pick such a k
        raise DomainError(
            "np_exact_bernoulli: rounding in the log P0 tail puts the tie "
            f"randomization above 1 (n = {n}, log_eps = {log_eps!r}); eps is too close to 1"
        )
    gamma = math.exp(log_excess - lp0[k]) if log_excess > -math.inf else 0.0
    log_accept1 = np.logaddexp(tail1, math.log(gamma) + lp1[0]) if gamma > 0.0 else tail1
    log_beta = log_diff_exp(0.0, log_accept1) if log_accept1 < 0.0 else -math.inf
    threshold = float(n - k) if mirrored else float(k)
    return NPResult(log_beta, threshold, gamma)
