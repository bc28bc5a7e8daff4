"""Exhaustive NP oracle for finite-support pairs: the small-n test reference.

It enumerates all K^n sample points, so keep K^n to a few million.  It
takes eps in linear space, so it cannot see beta below about 1e-16 or eps
within 1e-16 of 0 or 1; ``htbounds.oracle.np_exact_discrete`` is checked
against it where both are exact.
"""

import math

import numpy as np

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
        if budget > 0.0 and c0[i] > 0.0:
            gamma = budget / c0[i]
            accepted1 += gamma * c1[i]
            achieved += budget
        break
    beta = max(1.0 - accepted1, 0.0)
    return NPResult(
        beta, math.log(beta) if beta > 0 else -math.inf, threshold, gamma, min(achieved, eps)
    )
