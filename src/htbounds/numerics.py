"""Log-domain numerics, the bracketed scalar maximizer and the root solver.

This module is the numerical kernel shared by every bound evaluation:

* the standard Gaussian upper-tail function ``Q(x) = P(Z >= x)``, its
  logarithm, and two inverses, one taking the tail probability ``p`` and
  one taking ``log p`` so that thresholds stay accurate long after ``p``
  itself has underflowed (``log p`` down to about ``-1e6``).  All four
  are scipy special functions (``erfc``, ``log_ndtr``, ``ndtri``,
  ``ndtri_exp``); only the log inverse adds one Newton step of its own;
* ``log_diff_exp`` for differences of exponentially small or large
  quantities;
* ``maximize_scalar``, a derivative-free maximizer over an interval that
  scans a log-spaced grid and then refines the best cell with
  golden-section search.  It optimizes only the order of
  ``sample_complexity_renyi`` and the refinement step of the
  achievability grid;
* ``_newton_root``, a safeguarded Newton iteration for the one sign
  change of a function on a bracket.  Every other optimized bound is the
  root of its stationarity equation and goes through it: the Renyi
  orders of the converse and of the two phase-transition bounds, the
  Berry-Esseen slack and the smoothing temperature (see
  :mod:`htbounds.bounds`).

All functions are pure and thread-safe, and so are the divergences in
:mod:`htbounds.distributions`, whose only shared state is a bounded
per-pair cache of read-only log atoms.  The ``Q`` family and
``log_diff_exp`` accept scalars or numpy arrays; scalar input yields a
plain ``float``.  ``q_inverse`` and ``log_diff_exp`` check it with plain
comparisons and apply the same numpy ufuncs as for arrays, so both paths
give the same bits and the same errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "Bracket",
    "DomainError",
    "OptimizationError",
    "log_diff_exp",
    "log_q",
    "maximize_scalar",
    "q_function",
    "q_inverse",
    "q_inverse_log",
]

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Number of grid points scanned before golden-section refinement.
GRID_POINTS = 2048

#: Upper cap on the geometric expansion of an unbounded bracket.
EXPANSION_CAP = 1.0e6

#: Safety cap on root-solver steps; bisection to adjacent floats needs about 110.
_ROOT_STEPS = 200
#: Offset x - origin beyond which an unbounded root search reports x = inf.
_ROOT_CAP = 2.0**40
#: Machine epsilon, the spacing of floats at 1.
_EPS = sys.float_info.epsilon


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class OptimizationError(RuntimeError):
    """The objective was non-finite over most of its bracket.

    ``last_value`` carries the last finite evaluation seen during the
    grid scan, or ``None`` if there was none at all.
    """

    def __init__(self, message: str, last_value: float | None = None):
        super().__init__(message)
        self.last_value = last_value


@dataclass(frozen=True)
class Bracket:
    """Search interval ``(lo, hi)`` for :func:`maximize_scalar`.

    Both ends are treated as open: the grid keeps an interior offset of
    ``tolerance`` from each end, so objectives may diverge at the
    endpoints themselves.  ``hi`` may be ``math.inf``, in which case the
    effective upper end is found by geometric expansion, capped at
    ``lo + 1e6``.
    """

    lo: float
    hi: float
    tolerance: float = 1.0e-9

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got ({self.lo}, {self.hi})")
        if not self.tolerance > 0.0:
            raise DomainError(f"bracket tolerance must be positive, got {self.tolerance}")


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


def _scalar_call(f: Callable, x: float) -> float:
    v = float(f(x))
    return v if not math.isnan(v) else -math.inf


def _grid_values(f: Callable, xs: np.ndarray) -> np.ndarray:
    # One vectorized call when the objective supports it, else a scalar loop.
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError, AttributeError):
        vals = np.array([float(f(x)) for x in xs], dtype=float)
    return vals


def _expanded_span(f: Callable, lo: float) -> float:
    # Geometric expansion: quadruple the span until the objective stops
    # increasing at the upper end, so the maximum is interior to the span.
    span = 1.0
    prev = _scalar_call(f, lo + span)
    while span * 4.0 <= EXPANSION_CAP:
        span *= 4.0
        cur = _scalar_call(f, lo + span)
        if not cur > prev:
            return span
        prev = cur
    return EXPANSION_CAP


def maximize_scalar(f: Callable, bracket: Bracket) -> tuple[float, float]:
    """Maximize ``f`` over ``bracket``; returns ``(arg, value)``.

    The search is a ``GRID_POINTS``-point log-spaced grid scan (points
    spaced geometrically in distance from the lower end, so that
    structure near ``lo`` is resolved as finely as structure far from
    it) followed by golden-section refinement of the best grid cell down
    to ``bracket.tolerance`` on the argument.  The returned value is the
    best evaluation seen, so it is never below the grid maximum.

    NaN evaluations are treated as ``-inf``.  If more than half of the
    grid evaluations are non-finite the search aborts with
    :class:`OptimizationError` carrying the last finite value seen.
    """
    lo, tol = bracket.lo, bracket.tolerance
    if math.isinf(bracket.hi):
        span = _expanded_span(f, lo)
    else:
        span = bracket.hi - lo - tol
    if span <= tol:
        x = lo + 0.5 * (bracket.hi - lo) if math.isfinite(bracket.hi) else lo + span
        return x, _scalar_call(f, x)
    xs = lo + np.geomspace(tol, span, GRID_POINTS)
    vals = _grid_values(f, xs)
    finite = np.isfinite(vals)
    n_bad = GRID_POINTS - int(np.count_nonzero(finite))
    if n_bad > GRID_POINTS // 2:
        last = float(vals[finite][-1]) if n_bad < GRID_POINTS else None
        raise OptimizationError("objective non-finite over most of the bracket", last_value=last)
    masked = np.where(finite, vals, -np.inf)
    i = int(np.argmax(masked))
    best_x, best_f = float(xs[i]), float(masked[i])
    a = float(xs[i - 1]) if i > 0 else float(xs[0])
    b = float(xs[i + 1]) if i + 1 < GRID_POINTS else float(xs[-1])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _scalar_call(f, c)
    fd = _scalar_call(f, d)
    for x_, f_ in ((c, fc), (d, fd)):
        if f_ > best_f:
            best_x, best_f = x_, f_
    for _ in range(300):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _scalar_call(f, c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _scalar_call(f, d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


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
