"""Log-domain numerics and the root solver.

This module is the numerical kernel shared by every bound evaluation:

* the logarithm of the standard Gaussian upper-tail function
  ``Q(x) = P(Z >= x)``, and two inverses of ``Q``, one taking the tail
  probability ``p`` and one taking ``log p`` so that thresholds stay
  accurate long after ``p`` itself has underflowed (``log p`` down to
  about ``-1e6``).  All three are standard-library :mod:`math` and
  :mod:`statistics` functions: ``log Q`` is ``math.erfc`` with the rounding
  of its argument carried to first order, or an asymptotic series past
  ``x = 37`` where ``erfc`` would leave the normal floats; the inverse of
  ``Q`` is ``NormalDist().inv_cdf`` (Wichura's AS241); the log inverse
  starts from either and runs Newton on ``log Q``.  ``Q(x)`` itself is
  ``exp(log_q(x))``;
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
Their only shared state is two ``functools`` caches, each entry
read-only once built: one bounded cache of each pair's record per
direction, and one of the levels of log k!, each level the one below
with its top half appended, so no lock is needed.  Every bound solves one
scalar problem at a time, so the ``Q`` family and ``log_diff_exp`` take
scalars (``int`` or ``float``) only, check them with
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
from statistics import NormalDist
from typing import Callable

__all__ = [
    "DomainError",
    "log_diff_exp",
    "log_q",
    "q_inverse",
    "q_inverse_log",
]

_LOG2 = math.log(2.0)
#: log sqrt(2 pi), correctly rounded (0.5 * math.log(2 pi) is one ulp below it).
_LOG_SQRT_2PI = 0.9189385332046728
#: sqrt(1/2) as a double and the remainder the double cannot hold (50-digit mpmath).
_SQRT_HALF, _SQRT_HALF_LO = 0.7071067811865476, -4.833646656726457e-17
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
#: Past this x, erfc(x / sqrt 2) would leave the normal floats; log Q is a series there.
_LOG_Q_SERIES = 37.0
#: Below this log p, exp(log p) would leave the normal floats; q_inverse_log starts from a series.
_LOG_P_SERIES = -700.0
#: Cap on q_inverse_log's Newton steps; it stops after at most 4 (``log p`` in [-1e6, 0)).
_Q_NEWTON_STEPS = 10
#: Phi^{-1}, Wichura's AS241 (``statistics`` implements it in C).
_INV_CDF = NormalDist().inv_cdf

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


def _two_product(a: float, b: float) -> tuple[float, float]:
    """``(a * b, e)`` with ``a * b + e`` exactly the product (Dekker's split, no FMA)."""
    p = a * b
    t = 134217729.0 * a  # 2^27 + 1
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _q_erfc(y: float) -> float:
    """``Q(y) = erfc(y / sqrt 2) / 2`` for ``0 <= y < 40``, with the argument's rounding carried.

    The argument is t + e, t the double nearest y sqrt(1/2) and e what it
    leaves out: the product's own rounding and y times the part of
    sqrt(1/2) its double drops.  To first order erfc(t + e) = erfc(t) -
    e (2 / sqrt pi) e^{-t^2}; |e| is a few 1e-17 y, so the second order is
    below 1e-24 relative.
    """
    t, e = _two_product(y, _SQRT_HALF)
    e += y * _SQRT_HALF_LO
    return 0.5 * math.erfc(t) - e * _INV_SQRT_PI * math.exp(-t * t)


def _log_q(x: float) -> float:
    if x < 0.0:
        # below -40, Q(-x) < 1e-349 is 0 as a double, so log Q(x) is -0.0
        return math.log1p(-_q_erfc(-x)) if x > -40.0 else -0.0
    if x <= _LOG_Q_SERIES:
        return math.log(_q_erfc(x))
    # Q(x) = phi(x) / x (1 + sum_k (-1)^k (2k - 1)!! / x^{2k}); at x = 37 the
    # terms fall below 1e-17 by k = 7, and x^2 / 2 keeps its rounding error.
    hi, lo = _two_product(0.5 * x, x)
    if hi == math.inf:
        return -math.inf  # x above about 1.9e154: log Q is below the float range
    r = 0.5 / hi
    term, series, k = 1.0, 0.0, 1.0
    while abs(term) >= 1e-17:
        term *= -k * r
        series += term
        k += 2.0
    return -hi + (-lo - math.log(x) - _LOG_SQRT_2PI + math.log1p(series))


def log_q(x: float) -> float:
    """``log Q(x)``, accurate over the whole real line.

    ``log(erfc(x / sqrt 2) / 2)`` for ``0 <= x <= 37`` and
    ``log1p(-erfc(-x / sqrt 2) / 2)`` for ``x < 0``, with the rounding of
    ``x / sqrt 2`` carried into ``erfc`` to first order; past ``x = 37``
    the asymptotic series ``-x^2/2 - log(x sqrt(2 pi)) + log1p(sum_k
    (-1)^k (2k - 1)!! / x^{2k})``, which never underflows;
    ``log_q(50.0)`` is about ``-1254.8``.  Within 1e-15 relative of
    50-digit mpmath wherever ``log Q(x)`` is a normal float.  Raises
    :class:`DomainError` unless ``x`` is a finite scalar.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError("log_q requires finite input")
    return _log_q(float(x))


def q_inverse(p: float) -> float:
    """Inverse of ``Q`` on a scalar ``p`` in ``(0, 1)``: the ``x`` with ``Q(x) = p``.

    ``-NormalDist().inv_cdf(p)``, Wichura's AS241 (``Q(x) = Phi(-x)``).
    From ``p = 1e-300`` up to ``1 - 1e-15`` it is within 2e-15 of the
    exact root, relative (absolute where ``|x| < 1e-3``).
    """
    if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
        raise DomainError("q_inverse requires p in (0, 1)")
    return -_INV_CDF(p)


def q_inverse_log(log_p: float) -> float:
    """Inverse of ``log Q``: the ``x`` with ``log Q(x) = log_p``, a finite scalar < 0.

    Starts from AS241 where ``p`` is a normal float, on ``1 - p =
    -expm1(log_p)`` above ``log_p = -log 2`` and on ``p`` down to
    ``log_p = -700``; below, from the tail series ``x^2 = u - log u -
    log 2 pi``, ``u = -2 log_p``, scaled by 1/4 so that it answers down
    to ``-sys.float_info.max``.  Newton on ``log Q`` runs from there
    while the residual falls, at most 4 steps.  The contract is in ulps of ``log_p``, since an absolute
    one cannot hold deep in the tail (one ulp of ``1e6`` is ``1.2e-10``):
    for ``log_p`` from ``-0.5`` down to ``-1e6``, ``log_q(x)`` is within
    4 ulps of ``log_p``.  Nearer 0, ``log Q`` moves by up to about a
    hundred ulps of ``log_p`` between neighbouring doubles ``x`` (31 at
    ``-1e-12``), and that spacing is the limit.
    """
    if not (isinstance(log_p, (int, float)) and -math.inf < log_p < 0.0):
        raise DomainError("q_inverse_log requires finite log_p < 0")
    log_p = float(log_p)
    if log_p > -_LOG2:
        x = _INV_CDF(-math.expm1(log_p))
    elif log_p > _LOG_P_SERIES:
        x = -_INV_CDF(math.exp(log_p))
    else:
        # x = 2 sqrt(u/4 - log(u)/4 - log(2 pi)/4): u overflows below log_p =
        # -8.99e307, u/4 does not, and the factor 4 under the root is exact
        x = 2.0 * math.sqrt(-0.5 * log_p - 0.25 * (_LOG2 + math.log(-log_p))
                            - 0.5 * _LOG_SQRT_2PI)
    # Newton steps while the residual falls; once it stops, x is at the
    # rounding noise of log Q, and the best point so far is returned.
    best, best_resid = x, math.inf
    for _ in range(_Q_NEWTON_STEPS):
        logq = _log_q(x)
        resid = logq - log_p
        if not abs(resid) < best_resid:
            break
        best, best_resid = x, abs(resid)
        # d/dx log Q = -phi/Q, so the step is resid * Q / phi.  For |log_p|
        # below about 1e-310, Q / phi overflows; the start is kept there.
        try:
            x += resid * math.exp(logq + 0.5 * x * x + _LOG_SQRT_2PI)
        except OverflowError:
            break
    return best


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
