"""Log-domain numerics and the root solver.

This module is the numerical kernel shared by every bound evaluation:

* the standard Gaussian upper-tail function ``Q(x) = P(Z >= x)``, its
  logarithm, and two inverses, one taking the tail probability ``p`` and
  one taking ``log p`` so that thresholds stay accurate long after ``p``
  itself has underflowed (``log p`` down to about ``-1e6``).  All four
  are scipy special functions (``erfc``, ``log_ndtr``, ``ndtri``,
  ``ndtri_exp``); only the log inverse adds one Newton step of its own;
* ``log_diff_exp`` for differences of exponentially small or large
  quantities;
* ``_newton_root``, a safeguarded Newton iteration for the one sign
  change of a function on a bracket.  Every optimized bound is a root or
  a closed form, and every root goes through it: the Renyi orders of the
  converse, of the two phase-transition bounds and of the threshold
  achievability bound, the two sample-size crossings, the Berry-Esseen
  slack and the smoothing temperature (see :mod:`htbounds.bounds`).

All functions are pure and thread-safe, and so are the divergences in
:mod:`htbounds.distributions` and the oracles in :mod:`htbounds.oracle`.
Their only shared state is read-only once built: one bounded cache of
atoms per pair and direction, and one cached table of log k!.  The ``Q``
family and ``log_diff_exp`` accept scalars or numpy arrays; scalar input
yields a plain ``float``.  ``q_inverse`` and ``log_diff_exp`` check it
with plain comparisons and apply the same numpy ufuncs as for arrays, so
both paths give the same bits and the same errors.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "DomainError",
    "log_diff_exp",
    "log_q",
    "q_function",
    "q_inverse",
    "q_inverse_log",
]

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Safety cap on root-solver steps; bisection to adjacent floats needs about 110.
_ROOT_STEPS = 200
#: Offset x - origin beyond which an unbounded root search reports x = inf.
_ROOT_CAP = 2.0**40
#: Machine epsilon, the spacing of floats at 1.
_EPS = sys.float_info.epsilon


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def _check_n(n, minimum: int = 1) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < minimum:
        raise DomainError(f"n must be an integer >= {minimum}, got {n!r}")


def _check_log_eps(log_eps: float) -> None:
    if not (isinstance(log_eps, (int, float)) and math.isfinite(log_eps) and log_eps < 0.0):
        raise DomainError(f"log_eps must be finite and < 0, got {log_eps!r}")


def _check_log_prob(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and value <= 0.0 and not math.isnan(value)):
        raise DomainError(f"{name} must lie in [-inf, 0], got {value!r}")


def _float_or_array(x):
    # A plain float for scalars and 0-d arrays, else a float array; the
    # common float skips np.asarray.
    if isinstance(x, float):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def q_function(x):
    """Gaussian upper-tail probability ``Q(x) = P(Z >= x)`` for standard ``Z``.

    Evaluated as ``erfc(x / sqrt(2)) / 2``, which keeps full relative
    accuracy out to ``|x|`` of at least 38, where the tail reaches the
    subnormal range.  Accepts scalars or arrays; raises
    :class:`DomainError` on non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_function requires finite input")
    out = 0.5 * special.erfc(arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def log_q(x):
    """``log Q(x)``, accurate over the whole real line.

    Uses the log-CDF of the normal distribution (``log_ndtr``), which
    switches to an asymptotic expansion in the far tail instead of
    underflowing; ``log_q(50.0)`` is about ``-1254.8``.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("log_q requires finite input")
    out = special.log_ndtr(-arr)
    return float(out) if arr.ndim == 0 else out


def q_inverse(p):
    """Inverse of :func:`q_function` on ``p`` in ``(0, 1)``.

    The library special function ``-ndtri(p)`` (``ndtri`` is the inverse
    of the normal CDF, and ``Q(x) = Phi(-x)``).  It is accurate to a few
    ulps in ``x`` from ``p = 1e-300`` up to ``1 - 1e-15``.
    """
    p = _float_or_array(p)
    if isinstance(p, float):
        if not 0.0 < p < 1.0:
            raise DomainError("q_inverse requires p in (0, 1)")
        return float(-special.ndtri(p))
    if p.size and not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("q_inverse requires p in (0, 1)")
    return -special.ndtri(p)


def q_inverse_log(log_p):
    """Inverse of ``log Q``: the ``x`` with ``log Q(x) = log_p``.

    The library special function ``-ndtri_exp(log_p)``, which never forms
    ``p`` itself, followed by one Newton step on ``log_ndtr`` that removes
    the few thousand ulps ``ndtri_exp`` leaves in the far tail.  The
    contract is in ulps of ``log_p``, since an absolute one cannot hold
    deep in the tail (one ulp of ``1e6`` is ``1.2e-10``): for ``log_p``
    from ``-0.5`` down to ``-1e6``, ``log_q(x)`` is within 5 ulps of
    ``log_p``.  Nearer 0, ``log Q`` moves by up to about a hundred ulps
    of ``log_p`` between neighbouring doubles ``x``, and that spacing is
    the limit.
    """
    arr = np.asarray(log_p, dtype=float)
    if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr < 0.0)):
        raise DomainError("q_inverse_log requires finite log_p < 0")
    x = -special.ndtri_exp(arr)
    logq = special.log_ndtr(-x)
    # d/dx log Q = -phi/Q, so the Newton step is resid * Q / phi.
    # For |log_p| below about 1e-310, Q / phi overflows and the step is
    # inf or NaN; the ndtri_exp value is kept there.
    log_phi = -0.5 * x * x - _LOG_SQRT_2PI
    with np.errstate(over="ignore", invalid="ignore"):
        step = (logq - arr) * np.exp(logq - log_phi)
    out = np.where(np.isfinite(step), x + step, x)
    return float(out) if arr.ndim == 0 else out


def log_diff_exp(a, b):
    """``log(exp(a) - exp(b))`` for ``a >= b``, stable near ``a == b``.

    With ``d = b - a`` this is ``a + log(-expm1(d))`` for ``d > -log 2``
    and ``a + log1p(-exp(d))`` below, each form where it keeps full
    relative accuracy.  Returns ``-inf`` when the arguments coincide
    (including both ``-inf``); raises :class:`DomainError` when ``b > a``.
    """
    a, b = _float_or_array(a), _float_or_array(b)
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            raise DomainError("log_diff_exp requires non-NaN arguments")
        if b > a:
            raise DomainError("log_diff_exp requires a >= b")
        if a == -math.inf:  # so b == -inf too
            return -math.inf
        d = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(a + (np.log(-np.expm1(d)) if d > -_LOG2 else np.log1p(-np.exp(d))))
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any(np.isnan(aa)) or np.any(np.isnan(bb)):
        raise DomainError("log_diff_exp requires non-NaN arguments")
    if np.any(bb > aa):
        raise DomainError("log_diff_exp requires a >= b")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = bb - aa
        out = aa + np.where(d > -_LOG2, np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
    return np.where((aa == -np.inf) & (bb == -np.inf), -np.inf, out)


def _newton_root(f: Callable, lo: float, hi: float, x: float, origin: float):
    """The point in (lo, hi) where ``f`` changes sign, from + to -.

    ``f(x)`` returns ``(r, slope, size, extra)``: the function value, its
    derivative, the sum of the magnitudes of the terms ``r`` was formed
    from (``|r| <= 8 eps size`` counts as a root) and anything the caller
    wants back at the final point.  The caller guarantees ``origin <= lo``,
    ``r > 0`` towards ``lo`` and ``r < 0`` towards ``hi``; neither end is
    evaluated, and ``hi`` may be inf.  ``x`` is the start.  Safeguarded
    Newton from there: a step that leaves the bracket, or a slope that is
    not negative, bisects the offset ``x - origin`` (geometrically while
    the bracket spans a ratio above 4) or, while ``hi`` is still inf,
    quadruples it.  Returns ``(x, extra)`` at the last point evaluated,
    which is always inside (lo, hi), or ``(inf, None)`` when ``hi`` is inf
    and the sign change lies beyond ``x - origin = 2^40``.
    """
    a, b = lo, hi
    if not a < x < b:
        x = a + 0.5 * (b - a) if b < math.inf else 2.0 * a
    for _ in range(_ROOT_STEPS):
        r, slope, size, extra = f(x)
        if abs(r) <= 8.0 * _EPS * size:
            break  # f(x) is zero to within its rounding
        if r > 0.0:
            a = x
        else:
            b = x
        nxt = x - r / slope if slope < 0.0 else math.nan
        if b == math.inf:
            if x - origin > _ROOT_CAP:
                return math.inf, None
            if not a < nxt < origin + 4.0 * (x - origin):
                nxt = origin + 4.0 * (x - origin)
        elif not a < nxt < b:
            x_a, x_b = a - origin, b - origin
            nxt = origin + math.sqrt(x_a * x_b) if x_b > 4.0 * x_a > 0.0 else a + 0.5 * (x_b - x_a)
            if not a < nxt < b:
                break  # the bracket is down to adjacent floats
        if abs(nxt - x) <= 1.0e-10 * (x - origin) + 4.0 * _EPS * abs(x):
            break  # Newton converges quadratically, so x is already that close
        x = nxt
    return x, extra
