"""Dense scan-and-polish maximizer: the test reference for optimized bounds.

It shares no code with the library's root solvers, so a bound solved as a
root can be checked against the same objective maximized by brute force.
"""

import math
import sys

import numpy as np


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
