"""Dense scan-and-polish maximizer: the test reference for optimized bounds.

It shares no code with the library's root solvers, so a bound solved as a
root can be checked against the same objective maximized by brute force.
The objectives take the Renyi divergence from :func:`renyi_reference`,
vectorized over the scanned orders and independent of the library's
tilted log-sum.
"""

import math
import sys

import numpy as np

from htbounds.distributions import BernoulliPair, Direction, GaussianPair


def renyi_reference(pair, lams, direction):
    """D_lambda of the pair at every order in ``lams`` (an array), vectorized.

    Gaussian pairs use the closed form lambda delta^2 / (2 sigma^2).
    Discrete pairs use a log-sum-exp of lambda log p + (1 - lambda) log q
    over the atoms, each vector renormalized to sum 1, broadcast over the
    orders, which is accurate to about 1e-16 / |(lambda - 1) D_lambda|
    relative.  Where |lambda - 1| max|z| <= 1/2, with z = log(p / q), that
    cancels as lambda -> 1, so there D_lambda is
    log1p(sum p expm1((lambda - 1) z)) / (lambda - 1), which keeps its
    relative accuracy.
    """
    lams = np.asarray(lams, dtype=float)
    if isinstance(pair, GaussianPair):
        return lams * ((pair.delta / pair.sigma) ** 2 / 2.0)
    if isinstance(pair, BernoulliPair):
        p, q = np.array([1.0 - pair.p0, pair.p0]), np.array([1.0 - pair.p1, pair.p1])
    else:
        p, q = np.array(pair.p0), np.array(pair.p1)
        p, q = p[p > 0.0], q[p > 0.0]
    if direction is Direction.REVERSE:
        p, q = q, p
    p, q = p / p.sum(), q / q.sum()
    col = lams.reshape(-1, 1)
    x = col * np.log(p) + (1.0 - col) * np.log(q)
    top = x.max(axis=-1)
    psi = top + np.log(np.exp(x - top[:, None]).sum(axis=-1))
    h = col - 1.0
    z = np.log(p / q)
    near = np.abs(h[:, 0]) * np.abs(z).max() <= 0.5
    psi[near] = np.log1p((p * np.expm1(h[near] * z)).sum(axis=-1))
    return (psi / h[:, 0]).reshape(lams.shape)


def scan_polish_argmax(f, lo, hi, points=10_000):
    """Dense geometric scan plus golden refinement; returns ``(argmax, max)``.

    f maps an array of points to objective values, with non-finite entries
    meaning infeasible.  The scan keeps the bound solvers' open ends:
    offsets from lo start at 1e-9, and an unbounded span is capped at 1e6.
    """
    span = min(hi - lo, 1.0e6)
    xs = lo + np.geomspace(1.0e-9, span, points)
    vals = np.asarray(f(xs), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    i = int(np.argmax(vals))
    best, arg = float(vals[i]), float(xs[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, points - 1)])

    def probe(x):
        v = float(np.asarray(f(np.asarray([x])))[0])
        return v if math.isfinite(v) else -math.inf

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = probe(c), probe(d)
    best, arg = max((best, arg), (fc, c), (fd, d), key=lambda t: t[0])
    for _ in range(200):
        if b - a <= 4.0 * sys.float_info.epsilon * abs(b):
            break  # the bracket is down to a few floats
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = probe(d)
        best, arg = max((best, arg), (fc, c), (fd, d), key=lambda t: t[0])
    return arg, best
