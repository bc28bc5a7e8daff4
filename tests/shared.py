"""Reference helpers that more than one test module uses."""

import collections
import contextlib
import math

import mpmath
import numpy as np
from scipy.special import ndtri

from htbounds.distributions import BernoulliPair, Direction, GaussianPair
from htbounds.oracle import np_exact_discrete, np_exact_gaussian

# max of ((l-1)/l)(c - l D) over l > 1 at c = 0.025, D = 0.00125 (the
# divergence of gaussian:2,0.05 either way) is attained at l* = sqrt(c/D):
# the order of renyi_converse's branch one at eps = e^{-c n} on that pair
PHASE_LAMBDA = 4.4721359549995794


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


# A pair's record in mpmath numbers: the fields of ``_tilt_atoms`` but log p
MpRecord = collections.namedtuple(
    "MpRecord", "p q z z_abs z_min d_inf log_q_top kl var berry log_affinity")


def mp_record(pair, direction, dps=None):
    """The pair's record at ``dps`` digits, or at the caller's working precision when None.

    From the float atoms, first argument first, where both do not vanish;
    each vector is scaled to sum to exactly 1, as the probabilities they
    stand for (0.7 + 0.2 + 0.1 is 1 - 2.8e-17 in exact arithmetic on the
    floats).  z = log(p / q); kl and var are the mean and variance of z
    under p, berry = 6 rho / var^1.5 with rho = sum p |z - kl|^3, and
    log_affinity = log sum sqrt(p q).  A Gaussian pair, with d = |delta| /
    sigma, has no atoms and the closed forms kl = d^2 / 2, var = d^2,
    berry = 6 sqrt(8 / pi), log_affinity = -d^2 / 8, D_inf = inf and
    log Q(A) = -inf.
    """
    with mpmath.workdps(dps) if dps else contextlib.nullcontext():
        if isinstance(pair, GaussianPair):
            d2 = (mpmath.mpf(pair.delta) / mpmath.mpf(pair.sigma)) ** 2
            inf = mpmath.inf
            return MpRecord((), (), (), inf, -inf, inf, -inf,
                            d2 / 2, d2, 6 * mpmath.sqrt(8 / mpmath.pi), -d2 / 8)
        if isinstance(pair, BernoulliPair):
            p0, p1 = (1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1)
        else:
            p0, p1 = zip(*((a, b) for a, b in zip(pair.p0, pair.p1) if a > 0.0))
        if direction is Direction.REVERSE:
            p0, p1 = p1, p0
        sp, sq = mpmath.fsum(p0), mpmath.fsum(p1)
        p, q = tuple(v / sp for v in p0), tuple(v / sq for v in p1)
        z = tuple(mpmath.log(a / b) for a, b in zip(p, q))
        kl = mpmath.fsum(a * x for a, x in zip(p, z))
        var = mpmath.fsum(a * (x - kl) ** 2 for a, x in zip(p, z))
        return MpRecord(p, q, z, max(map(abs, z)), min(z), max(z),
                        mpmath.log(mpmath.fsum(b for b, x in zip(q, z) if x == max(z))), kl, var,
                        6 * mpmath.fsum(a * abs(x - kl) ** 3 for a, x in zip(p, z)) / var**1.5,
                        mpmath.log(mpmath.fsum(mpmath.sqrt(a * b) for a, b in zip(p, q))))


MpTilt = collections.namedtuple("MpTilt", "w psi mean var")


def mp_tilt(record, h):
    """The tilted law w of an :func:`mp_record` at the order 1 + h, with psi, psi' and psi''.

    At the working precision.  w is p^lam q^(1-lam) / e^psi, with
    psi = log sum p^lam q^(1-lam), and psi' and psi'' are the mean and the
    variance of z under w.  The order is given by its step h from 1, and
    psi is log1p(sum p expm1(h z)), so an order within 1e-300 of 1 keeps its
    digits, and D_lam = psi / h.  Over a Gaussian record, with no atoms,
    psi = lam (lam - 1) var / 2, psi' = (lam - 1/2) var and psi'' = var.
    """
    h = mpmath.mpf(h)
    if not record.z:
        return MpTilt((), (1 + h) * h * record.var / 2, (h + mpmath.mpf(0.5)) * record.var,
                      record.var)
    psi = mpmath.log1p(mpmath.fsum(a * mpmath.expm1(h * x) for a, x in zip(record.p, record.z)))
    w = tuple(a * mpmath.exp(h * x - psi) for a, x in zip(record.p, record.z))
    mean = mpmath.fsum(a * x for a, x in zip(w, record.z))
    return MpTilt(w, psi, mean, mpmath.fsum(a * (x - mean) ** 2 for a, x in zip(w, record.z)))


def scalar_forms(x):
    """``x`` as a Python float and ``np.float64``, plus an int if integral."""
    forms = [float(x), np.float64(x)]
    if float(x).is_integer():
        forms.append(int(x))
    return forms
