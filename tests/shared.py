"""Reference helpers that more than one test module uses."""

import contextlib

import mpmath
import numpy as np

from htbounds.distributions import BernoulliPair, Direction


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


def scalar_forms(x):
    """``x`` as a Python float and ``np.float64``, plus an int if integral."""
    forms = [float(x), np.float64(x)]
    if float(x).is_integer():
        forms.append(int(x))
    return forms
