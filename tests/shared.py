"""Reference helpers that more than one test module uses."""

import contextlib
import math

import mpmath
import numpy as np
from scipy.special import ndtri

from htbounds.distributions import BernoulliPair, Direction, GaussianPair
from htbounds.oracle import np_exact_discrete, np_exact_gaussian


def exact_log_beta(pair, n, log_eps):
    """log beta_n(eps), exact in log: closed form for a Gaussian pair, else the type oracle.

    A Bernoulli pair takes the K = 2 type path, not ``np_exact_bernoulli``,
    which forms beta as 1 - P1(reject) and so loses it far below 1e-16.
    """
    oracle = np_exact_gaussian if isinstance(pair, GaussianPair) else np_exact_discrete
    return oracle(pair, n, log_eps).log_beta


def log_slack(log_beta):
    """The rounding of a bound and the oracle, relative to log beta."""
    return 1e-12 * max(1.0, abs(log_beta))


def exact_sample_size(pair, eps, delta):
    """n*, the smallest n with beta_n(eps) <= delta: sqrt(n) d >= Q^{-1}(eps) + Q^{-1}(delta)
    for a Gaussian pair (d = |delta| / sigma, Q^{-1} = -ndtri), else bisection in n over
    ``exact_log_beta``, which does not increase with n."""
    if isinstance(pair, GaussianPair):
        z, d = -(ndtri(eps) + ndtri(delta)), abs(pair.delta) / pair.sigma
        return max(math.ceil((z / d) ** 2), 1) if z > 0.0 else 1

    def enough(n):
        return exact_log_beta(pair, n, math.log(eps)) <= math.log(delta)

    lo, hi = 0, 1  # enough(hi), and not enough(lo) (lo = 0 samples never suffice)
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def mp_atoms(pair, direction, dps=None):
    """The pair's float atoms as mpmath numbers, first argument first.

    Each vector is scaled to sum to exactly 1, as the probabilities they
    stand for: 0.7 + 0.2 + 0.1 is 1 - 2.8e-17 in exact arithmetic on the
    floats.  The scaling runs at ``dps`` digits, or at the caller's working
    precision when ``dps`` is None.
    """
    if isinstance(pair, BernoulliPair):
        p0, p1 = (1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1)
    else:
        p0, p1 = pair.p0, pair.p1
    with mpmath.workdps(dps) if dps else contextlib.nullcontext():
        p = [mpmath.mpf(v) / mpmath.fsum(p0) for v in p0]
        q = [mpmath.mpf(v) / mpmath.fsum(p1) for v in p1]
    return (p, q) if direction is Direction.FORWARD else (q, p)


def mp_llr_moments(pair, dps=None):
    """Mean, variance and Berry-Esseen constant 6 rho / var^1.5 of the LLR under P0.

    From the mpmath atoms, or the closed forms for a Gaussian pair, at
    ``dps`` digits, or at the caller's working precision when ``dps`` is None.
    """
    with mpmath.workdps(dps) if dps else contextlib.nullcontext():
        if isinstance(pair, GaussianPair):
            d = abs(mpmath.mpf(pair.delta)) / mpmath.mpf(pair.sigma)
            return d * d / 2, d * d, 6 * mpmath.sqrt(8 / mpmath.pi)
        p, q = mp_atoms(pair, Direction.FORWARD)
        z = [mpmath.log(a / b) for a, b in zip(p, q)]
        mean = mpmath.fsum(a * x for a, x in zip(p, z))
        var = mpmath.fsum(a * (x - mean) ** 2 for a, x in zip(p, z))
        return mean, var, 6 * mpmath.fsum(a * abs(x - mean) ** 3 for a, x in zip(p, z)) / var**1.5


def scalar_forms(x):
    """``x`` as a Python float and ``np.float64``, plus an int if integral."""
    forms = [float(x), np.float64(x)]
    if float(x).is_integer():
        forms.append(int(x))
    return forms
