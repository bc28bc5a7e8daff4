"""Log-domain numerics and the root solver.

This module is the numerical kernel shared by every bound evaluation:

* the logarithm of the standard Gaussian upper-tail function
  ``Q(x) = P(Z >= x)``, and two inverses of ``Q``, one taking the tail
  probability ``p`` and one taking ``log p`` so that thresholds stay
  accurate long after ``p`` itself has underflowed (``log p`` down to
  about ``-1e6``).  All three are scipy special functions (``log_ndtr``,
  ``ndtri``, ``ndtri_exp``); only the log inverse adds one Newton step of
  its own.  ``Q(x)`` itself is ``exp(log_q(x))``;
* ``log_diff_exp`` for differences of exponentially small or large
  quantities;
* ``_newton_root``, a safeguarded Newton iteration for the one sign
  change of a function on a bracket.  Every optimized bound is a root or
  a closed form, and every root goes through it: the Renyi orders of the
  converse, of the two phase-transition bounds and of the threshold
  achievability bound, the two sample-size crossings, the Berry-Esseen
  slack and the smoothing temperature (see :mod:`htbounds.bounds`).  It
  always returns a finite point of the bracket: a search with no upper
  end stops past an offset of 2^40, and only the caller can say what an
  infinite root means.

All functions are pure and thread-safe, and so are the divergences in
:mod:`htbounds.distributions` and the oracles in :mod:`htbounds.oracle`.
Their only shared state is read-only once built: one bounded cache of
each pair's record per direction, and one cached table of log k!.  Every bound
solves one scalar problem at a time, so the ``Q`` family and
``log_diff_exp`` take scalars (``int`` or ``float``) only, check them with
plain comparisons, and return a plain ``float``; an array or any other
argument raises :class:`DomainError`.  Scalar arithmetic here and in
:mod:`htbounds.bounds` uses :mod:`math`, not numpy's ufuncs, with one
formula per quantity; an overflow there is an ``OverflowError``, handled
where it can occur, not a warning.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable

from scipy import special

__all__ = [
    "DomainError",
    "log_diff_exp",
    "log_q",
    "q_inverse",
    "q_inverse_log",
]

_LOG2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Safety cap on root-solver steps; bisection to adjacent floats needs about 110.
_ROOT_STEPS = 200
#: Offset x - origin beyond which an unbounded root search stops.
_ROOT_CAP = 2.0**40
#: Machine epsilon, the spacing of floats at 1.
_EPS = sys.float_info.epsilon
#: The largest sample size, the largest finite float: every bound computes with n as a float.
_MAX_N = int(sys.float_info.max)


class DomainError(ValueError):
    """An input the library cannot answer.

    Either it lies outside the mathematical domain of an operation (a
    parameter, a sample size, a budget), a pair spec does not parse
    (:class:`htbounds.distributions.PairSpecError`), or an experiment grid
    is malformed: no sample sizes or bounds selected, an unknown bound, a
    bound not defined for the pair, or a table too short to write.
    """


def _check_n(n) -> None:
    # int first: an isinstance against the numbers.Integral ABC costs about 0.6 us
    integral = isinstance(n, int) or isinstance(n, numbers.Integral)
    if not integral or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if n > _MAX_N:
        raise DomainError(f"n must be at most the largest float, got an integer of "
                          f"{n.bit_length()} bits")


def _check_log_eps(log_eps: float) -> None:
    if not (isinstance(log_eps, (int, float)) and math.isfinite(log_eps) and log_eps < 0.0):
        raise DomainError(f"log_eps must be finite and < 0, got {log_eps!r}")


def _check_log_prob(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and value <= 0.0 and not math.isnan(value)):
        raise DomainError(f"{name} must lie in [-inf, 0], got {value!r}")


def log_q(x: float) -> float:
    """``log Q(x)``, accurate over the whole real line.

    Uses the log-CDF of the normal distribution (``log_ndtr``), which
    switches to an asymptotic expansion in the far tail instead of
    underflowing; ``log_q(50.0)`` is about ``-1254.8``.  Raises
    :class:`DomainError` unless ``x`` is a finite scalar.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError("log_q requires finite input")
    return float(special.log_ndtr(-x))


def q_inverse(p: float) -> float:
    """Inverse of ``Q`` on a scalar ``p`` in ``(0, 1)``: the ``x`` with ``Q(x) = p``.

    The library special function ``-ndtri(p)`` (``ndtri`` is the inverse
    of the normal CDF, and ``Q(x) = Phi(-x)``).  It is accurate to a few
    ulps in ``x`` from ``p = 1e-300`` up to ``1 - 1e-15``.
    """
    if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
        raise DomainError("q_inverse requires p in (0, 1)")
    return float(-special.ndtri(p))


def q_inverse_log(log_p: float) -> float:
    """Inverse of ``log Q``: the ``x`` with ``log Q(x) = log_p``, a finite scalar < 0.

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
    if not (isinstance(log_p, (int, float)) and -math.inf < log_p < 0.0):
        raise DomainError("q_inverse_log requires finite log_p < 0")
    x = float(-special.ndtri_exp(log_p))
    logq = float(special.log_ndtr(-x))
    # d/dx log Q = -phi/Q, so the Newton step is resid * Q / phi.
    # For |log_p| below about 1e-310, Q / phi overflows; the ndtri_exp
    # value is kept there.
    log_phi = -0.5 * x * x - _LOG_SQRT_2PI
    try:
        return x + (logq - log_p) * math.exp(logq - log_phi)
    except OverflowError:
        return x


def log_diff_exp(a: float, b: float) -> float:
    """``log(exp(a) - exp(b))`` for scalars ``a >= b``, stable near ``a == b``.

    With ``d = b - a`` this is ``a + log(-expm1(d))`` for ``d > -log 2``
    and ``a + log1p(-exp(d))`` below, each form where it keeps full
    relative accuracy.  Returns ``-inf`` when the arguments coincide
    (including both ``-inf``); raises :class:`DomainError` when ``b > a``
    or either argument is NaN or not a scalar.
    """
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not math.isnan(a) and not math.isnan(b)):
        raise DomainError("log_diff_exp requires non-NaN arguments")
    if b > a:
        raise DomainError("log_diff_exp requires a >= b")
    a, b = float(a), float(b)
    d = b - a
    if d == 0.0 or a == -math.inf:  # equal arguments; a == -inf forces b == -inf
        return -math.inf
    return a + (math.log(-math.expm1(d)) if d > -_LOG2 else math.log1p(-math.exp(d)))


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
    which is always inside (lo, hi) and finite: when ``hi`` is inf and the
    sign change lies beyond ``x - origin = 2^40``, the search stops at the
    first point past that offset.
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
                break  # the sign change lies further out; stop at this point
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
