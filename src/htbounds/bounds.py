"""Finite-sample bounds on the Type II error of a binary hypothesis test.

Setting: n i.i.d. observations, a test accepts H1 when it should accept
H0 with probability alpha_n (Type I) and conversely with probability
beta_n (Type II); beta_n(eps) is the smallest Type II error achievable
subject to alpha_n <= eps.  Throughout, eps enters as log_eps so the
exponentially small regimes keep full precision.

Converse (lower) bounds on beta_n(eps):

* ``renyi_converse``: the two-branch Renyi bound

      beta_n(eps) >= max{ 1 - inf_{l>1} (eps e^{n D_l(P1||P0)})^{(l-1)/l},
                          sup_{l>1} (1-eps)^{l/(l-1)} e^{-n D_l(P0||P1)} }

* ``phase_transition_converse``: branch one at eps = e^{-nc} for a rate
  c > D(P1||P0), where the bound tends to 1.
* ``fano_bound``, ``hellinger_bound``, ``berry_esseen_bound``,
  ``smoothing_out_bound``: the classical baselines it is compared with.

Achievability (upper) bounds:

* ``renyi_achievability_at_threshold``: for the likelihood-ratio test
  with log-LR threshold tau and Type I error alpha,

      beta < inf_{l in (0,1)}
             (e^{(l-1) n D_l(P1||P0)} - alpha e^{l tau}) / e^{(l-1) tau}

* ``phase_transition_achievability``: the rate form at c < D(P1||P0),
  beta_n(e^{-nc}) < inf_{l} e^{-n ((1-l)/l)(D_l(P1||P0) - c)} over the
  l in (0,1) with D_l > c, obtained from the threshold construction of
  ``threshold_for_rate`` with the Markov bound on alpha.

Solving for the order.  With psi(l) = log sum p^l q^{1-l} over the atoms
of the two distributions (convex: the log-moment generating function of
the log-likelihood ratio z = log p/q) and D_l = psi(l)/(l-1), each Renyi
objective above is stationary exactly where

    H_s(l) = psi(l) - (l - s) psi'(l) = target,

and H_s' = -(l - s) psi'' < 0, so the optimal order is the one root of a
monotone function: s = 0 on the reverse atoms with target log(eps)/n for
branch one (target -c for both phase bounds), s = 1 on the forward atoms
with target log(1-eps)/n for branch two.  One solver, ``_tilt_root``,
finds it in a handful of psi evaluations: safeguarded Newton from the
root of psi's quadratic model at l = 1, and it tests the l = inf end
itself.  The ends are exact:
H_0(1) = -D(P1||P0), so branch one is informative exactly when
n D(P1||P0) < log(1/eps) and the phase root lies in (0, 1) exactly when
c < D(P1||P0); and when the target is at or below H_s(inf) = log P0(A),
A the atoms where z is largest, the optimum is the endpoint l = inf,
reported as ``optimizer = inf`` with the limit value (log eps +
n D_inf(P1||P0) for branch one, log(1-eps) - n D_inf(P0||P1) for branch
two).  For a Gaussian pair psi is the quadratic model itself, so Newton
starts at the root, and D_inf = inf, so there is no l = inf end.

The threshold achievability bound minimizes the convex
u(l) = n psi(l) - l tau, so its order is the root of n psi'(l) = tau.
The optimized ``sample_complexity_renyi`` is the larger of two
crossings in n: where branch two's log bound falls to log(delta), and
the same crossing with P0 and P1 swapped and eps and delta swapped.  Each
is monotone in n, with slope given by the envelope theorem.

The Berry-Esseen slack and the smoothing temperature are roots too: the
slope of each objective changes sign once, from + to -, so the maximizer
over the parameter's interval less 1e-9 at each end is the root of the
slope, or the end where it lies beyond the interval.  Every optimized
bound is a root or a closed form, and every root comes from the same
Newton iteration, :func:`htbounds.numerics._newton_root`.

Sample-size bounds: ``sample_complexity_renyi`` (valid for every l > 1,
optimized over l when none is given) and ``sample_complexity_pensia``
(the comparison bound at its closed-form l*).

Every bound returns a :class:`BoundResult`.  Lower bounds on beta that
come out non-positive are clamped to 0 and flagged valid=False; ones
that come out above 1 (possible for the literal Fano display at small n
and large eps) are clamped to 1 and likewise flagged, since a Type II
probability bound outside [0, 1] carries no information.  An upper bound
on beta whose log is above 0 (a vacuous threshold, or rounding at an
exponent near 0) keeps that log_value and its flag, and its value is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from .distributions import (
    Direction,
    DistributionPair,
    GaussianPair,
    _tilt,
    _tilt_atoms,
    _TiltAtoms,
    kl_divergence,
    llr_moments,
    renyi_divergence,
)
from .numerics import (
    _EPS,
    _LOG2,
    DomainError,
    _check_log_eps,
    _check_log_prob,
    _check_n,
    _newton_root,
    log_diff_exp,
    q_inverse,
)

__all__ = [
    "BoundKind",
    "BoundResult",
    "Constant",
    "ErrorRegime",
    "Exponential",
    "Linear",
    "berry_esseen_bound",
    "eps_at",
    "fano_bound",
    "hellinger_bound",
    "phase_transition_achievability",
    "phase_transition_converse",
    "renyi_achievability_at_threshold",
    "renyi_converse",
    "sample_complexity_pensia",
    "sample_complexity_renyi",
    "smoothing_out_bound",
    "threshold_for_rate",
]

#: Offset of the baselines' search domains from their open ends.
_EDGE = 1.0e-9
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class BoundKind(Enum):
    LOWER_BETA = "lower_bound_on_beta"
    UPPER_BETA = "upper_bound_on_beta"
    LOWER_N = "lower_bound_on_n"


@dataclass(frozen=True)
class BoundResult:
    """A bound value with its log, the optimizing free parameter, and kind.

    ``value == exp(log_value)`` up to 1e-12 whenever both are
    representable.  ``valid`` is False when the bound degenerated (a beta
    lower bound clamped to 0 or 1, a sample-size bound clamped to 1, or
    an upper bound whose premises admitted no positive value).
    """

    value: float
    log_value: float
    optimizer: float | None
    kind: BoundKind
    valid: bool


def _check_prob(name: str, p: float, upper: float = 1.0) -> None:
    if not (isinstance(p, (int, float)) and 0.0 < p < upper):
        raise DomainError(f"{name} must lie in (0, {upper:g}), got {p!r}")


def _check_rate(c: float) -> None:
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0.0):
        raise DomainError(f"rate c must be finite and > 0, got {c!r}")


@dataclass(frozen=True)
class Constant:
    """Fixed Type I budget eps_n = eps."""

    eps: float

    def __post_init__(self) -> None:
        _check_prob("eps", self.eps)


@dataclass(frozen=True)
class Linear:
    """Vanishing budget eps_n = 1/n (defined for n >= 2)."""


@dataclass(frozen=True)
class Exponential:
    """Exponentially vanishing budget eps_n = e^{-cn} at rate c > 0."""

    c: float

    def __post_init__(self) -> None:
        _check_rate(self.c)


ErrorRegime = Union[Constant, Linear, Exponential]


def eps_at(regime: ErrorRegime, n: int) -> tuple[float, float]:
    """The pair (eps_n, log eps_n) a regime prescribes at sample size n.

    eps_n may underflow to 0.0 in the exponential regime; log eps_n is
    exact regardless.
    """
    _check_n(n)
    if isinstance(regime, Constant):
        return regime.eps, math.log(regime.eps)
    if isinstance(regime, Linear):
        if n < 2:
            raise DomainError("linear regime requires n >= 2")
        return 1.0 / n, -math.log(n)
    if isinstance(regime, Exponential):
        log_eps = -regime.c * n
        return math.exp(log_eps), log_eps
    raise DomainError(f"unknown regime {regime!r}")


def _lower_beta(log_value: float | None, optimizer: float | None) -> BoundResult:
    # Common clamping for lower bounds on beta; see the module docstring.
    if log_value is None or log_value == -math.inf:
        return BoundResult(0.0, -math.inf, optimizer, BoundKind.LOWER_BETA, False)
    if log_value > 0.0:
        return BoundResult(1.0, 0.0, optimizer, BoundKind.LOWER_BETA, False)
    value = math.exp(log_value)
    return BoundResult(value, log_value, optimizer, BoundKind.LOWER_BETA, value > 0.0)


def _upper_beta(log_value: float, optimizer: float | None, valid: bool) -> BoundResult:
    # beta <= 1 always, so the value is at most 1; log_value keeps the bound's own log.
    return BoundResult(math.exp(min(log_value, 0.0)), log_value, optimizer,
                       BoundKind.UPPER_BETA, valid)


def _tilt_root(atoms: _TiltAtoms, s: float, target: float, lo: float,
               hi: float) -> tuple[float, float | None, float | None]:
    """The order l in (lo, hi) where H_s(l) = psi(l) - (l - s) psi'(l) = target.

    psi is the tilted log-sum over ``atoms``, one pair's record.  Since
    H_s' = -(l - s) psi'', H_s strictly decreases for l > s, and lo >= s
    here; the caller guarantees H_s(lo) > target, and target > H_s(hi) for
    a finite hi.  For hi = inf, H_s falls to H_s(inf) = log Q(A) + s D_inf,
    A the atoms where z is largest: at or below it there is no root, and
    the optimum is the l = inf end (a Gaussian record, with D_inf = inf,
    has none).  Newton starts where psi(1 + h) ~ psi'(1) h + psi''(1) h^2 / 2,
    a quadratic model that is exact for a Gaussian pair, puts the root,

        l = s + sqrt(w) / sqrt(psi''(1)),
        w = ((1 - s) sqrt(psi''(1)))^2 - 2 ((1 - s) psi'(1) + target),

    so that neither w nor l overflows at psi''(1) = 1e-320, l = 1e160;
    kept above lo, or at nan (the bracket's own start) where psi''(1) = 0
    or w is negative.  Returns (l, psi(l), size of psi) from
    :func:`htbounds.numerics._newton_root` on the offset l - s, which
    stops past l - s = 2^40 (a Gaussian root is its start, so only one
    past the float range gets there); every l > 1 gives a valid bound, and
    there every objective here is within about 1e-12 of its l = inf limit.
    This is the one source of l = inf: (inf, None, None) at the end of a
    record with a finite D_inf.
    """
    if hi == math.inf and atoms.d_inf < math.inf and target <= atoms.log_q_top + s * atoms.d_inf:
        return math.inf, None, None
    sd = math.sqrt(atoms.var)
    w = ((1.0 - s) * sd) ** 2 - 2.0 * ((1.0 - s) * atoms.kl + target)
    start = max(s + math.sqrt(w) / sd, math.nextafter(lo, hi)) if w >= 0.0 and sd else math.nan

    def resid(x):
        psi, mean, var, psi_size = _tilt(atoms, x)
        size = abs(psi) + abs((x - s) * mean) + abs(target)
        return psi - (x - s) * mean - target, -(x - s) * var, size, (psi, psi_size)

    lam, (psi, psi_size) = _newton_root(resid, lo, hi, start, s)
    return lam, psi, psi_size


def _argmax_by_root(slope: Callable, hi: float, start: float) -> float:
    """Maximizer over (0, hi) of an objective whose slope changes sign once.

    The slope goes from + to - (it may stay on one side); ``slope`` follows
    the contract of :func:`htbounds.numerics._newton_root`.  The domain is
    [1e-9, hi - 1e-9], which keeps 1e-9 away from the open ends, or the
    mid-point hi / 2 when that span is at most 1e-9; an optimum beyond
    either end is reported at that end.
    """
    if hi - _EDGE <= _EDGE:
        return 0.5 * hi
    a, b = _EDGE, hi - _EDGE
    if slope(a)[0] <= 0.0:
        return a
    if slope(b)[0] >= 0.0:
        return b
    return _newton_root(slope, a, b, start, 0.0)[0]


def _branch_one(rev: _TiltAtoms, n: int, log_eps: float) -> tuple[float | None, float | None]:
    """Branch one's log bound log(1 - e^{g*}) and its order l*.

    g* = inf_{l>1} ((l-1)/l)(log_eps + n D_l(P1||P0)).  With
    t = log_eps / n, g is stationary where H_0(l) = t; H_0(1) =
    -D(P1||P0), so the root lies in (1, inf) exactly when n D < log(1/eps),
    and when t <= H_0(inf) = log P0(argmax p1/p0) g decreases all the way
    and g* is its l = inf limit log_eps + n D_inf(P1||P0).  The log bound
    is None where g* >= 0 (vacuous), and l* is None where g* is the l -> 1
    limit 0.
    """
    t = log_eps / n
    if t >= -rev.kl:
        return None, None
    lam, psi, _ = _tilt_root(rev, 0.0, t, 1.0, math.inf)
    g = log_eps + n * rev.d_inf if lam == math.inf else ((lam - 1.0) * log_eps + n * psi) / lam
    return (log_diff_exp(0.0, g) if g < 0.0 else None), lam


def _branch_two(fwd: _TiltAtoms, n: float, log_1m_eps: float) -> tuple[float, float]:
    """sup_{l>1} (l/(l-1)) log(1-eps) - n D_l(P0||P1) and its argmax l.

    With u = log(1-eps) / n the objective is stationary where H_1(l) = u;
    H_1(1) = 0 > u, and when u <= H_1(inf) = log P0(argmax p0/p1) the
    objective increases all the way to its limit log(1-eps) - n D_inf(P0||P1).
    """
    u = log_1m_eps / n
    lam, psi, _ = _tilt_root(fwd, 1.0, u, 1.0, math.inf)
    if lam == math.inf:
        return log_1m_eps - n * fwd.d_inf, lam
    return (lam * log_1m_eps - n * psi) / (lam - 1.0), lam


def renyi_converse(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Two-branch Renyi lower bound on beta_n(eps); optimizer is the winning l.

    The optimizer is inf when the winning branch is best in its l = inf
    limit (see the module docstring).
    """
    _check_n(n)
    _check_log_eps(log_eps)
    log_one, lam_one = _branch_one(_tilt_atoms(pair, Direction.REVERSE), n, log_eps)
    # log(1 - eps) is finite for every finite log_eps < 0: 1 - eps is at
    # least the smallest subnormal even where eps itself rounds to 1.
    log_two, lam_two = _branch_two(_tilt_atoms(pair, Direction.FORWARD), n,
                                   log_diff_exp(0.0, log_eps))
    if log_one is not None and log_one >= log_two:
        return _lower_beta(log_one, lam_one)
    return _lower_beta(log_two, lam_two)


def phase_transition_converse(pair: DistributionPair, n: int, c: float) -> BoundResult:
    """Branch-one Renyi converse at eps = e^{-nc} for c > D(P1||P0).

    beta_n(e^{-nc}) >= 1 - inf_{l>1} e^{-n ((l-1)/l)(c - D_l(P1||P0))},
    which tends to 1: above the divergence the test problem flips phase.
    """
    _check_n(n)
    _check_rate(c)
    rev = _tilt_atoms(pair, Direction.REVERSE)
    if c <= rev.kl:
        raise DomainError(
            f"phase_transition_converse requires c > D(P1||P0) = {rev.kl:.6g}; "
            "for c below the divergence use phase_transition_achievability"
        )
    return _lower_beta(*_branch_one(rev, n, -c * n))


def renyi_achievability_at_threshold(
    pair: DistributionPair, n: int, tau: float, log_alpha: float
) -> BoundResult:
    """Upper bound on beta of the log-LR-threshold-tau test with Type I error alpha.

    Minimizes (e^{(l-1) n D_l(P1||P0)} - alpha e^{l tau}) / e^{(l-1) tau}
    over l in [1e-9, 1 - 1e-9].  With psi the reverse-direction tilted
    log-sum, (l-1) D_l = psi(l), and with u(l) = n psi(l) - l tau the log
    of the expression is tau + log(e^u - alpha), which increases in u.  u
    is convex, so the minimizer is that of u: the root of n psi'(l) = tau,
    or the end beyond which it lies (for a Gaussian pair, where
    psi'(l) = (l - 1/2) d^2 with d = delta / sigma, Newton's start
    l = 1 + (tau / n - psi'(1)) / psi''(1) = 1/2 + tau / (n d^2) is the root).
    The log value is formed as n psi - (l-1) tau + log(1 - alpha e^{-u}),
    which keeps its accuracy where the first two terms nearly cancel (tau
    near n D(P1||P0)), and is rounded up by a bound on its rounding error
    so that the bound on beta never understates.

    The expression decreases in alpha, so log_alpha must be the exact
    Type I error of the test, or a *lower* bound on it; log_alpha = -inf
    (alpha = 0) is always safe.  Where u <= log alpha the numerator is
    non-positive; if any such lambda exists (min u <= log alpha) the
    result is flagged valid=False and its value is the smaller of the
    values at the two ends among the ends where u > log alpha, and if
    neither is, the result is 0 with valid=False.
    """
    _check_n(n)
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)):
        raise DomainError(f"tau must be finite, got {tau!r}")
    _check_log_prob("log_alpha", log_alpha)
    lo, hi = _EDGE, 1.0 - _EDGE
    atoms = _tilt_atoms(pair, Direction.REVERSE)
    ulps = (len(atoms.p) + 8) * _EPS
    t = tau / n

    def slope(x):
        _, mean, var, _ = _tilt(atoms, x)
        return t - mean, -var, abs(t) + abs(mean), None

    def terms(lam):
        # u, n psi - (l-1) tau, and bounds on their rounding errors
        psi, _, _, psi_size = _tilt(atoms, lam)
        h, size = lam - 1.0, n * (abs(psi) + psi_size)
        return (n * psi - lam * tau, n * psi - h * tau,
                ulps * (size + abs(h * tau)), ulps * (size + abs(lam * tau)))

    d, v = atoms.kl, atoms.var
    lam = _argmax_by_root(slope, 1.0, 1.0 + (t - d) / v if v > 0.0 else 0.5)

    def log_value_at(lam):
        # None where the numerator is non-positive.  The error of u enters
        # log(1 - alpha e^{-u}) with the factor e^r / (1 - e^r), where
        # r = log alpha - u < 0, which stays finite however large -r is.
        u, base, err_base, err_u = terms(lam)
        if not u > log_alpha:
            return None
        r = log_alpha - u
        corr = log_diff_exp(0.0, r)
        err = err_base + err_u * math.exp(r) / -math.expm1(r) + 4.0 * _EPS * abs(corr)
        return base + corr + err

    log_value = log_value_at(lam)
    if log_value is not None:
        return _upper_beta(log_value, lam, True)
    ends = [(v, x) for x in (lo, hi) if (v := log_value_at(x)) is not None]
    if not ends:
        return _upper_beta(-math.inf, None, False)
    log_value, lam = min(ends)
    return _upper_beta(log_value, lam, False)


def threshold_for_rate(pair: DistributionPair, n: int, c: float, lam: float) -> float:
    """Log-LR threshold whose Markov bound pins the Type I error at e^{-nc}.

    tau = n D_lam(P1||P0) - n (D_lam(P1||P0) - c) / lam for lam in (0,1),
    formed as n ((lam - 1) D_lam + c) / lam: (lam - 1) D_lam gives back the
    reverse-direction tilted log-sum psi(lam) to about an ulp, and psi + c
    does not cancel, so tau keeps its accuracy as lam -> 1.  Requires
    c < D_lam(P1||P0) so the threshold sits below n D_lam.
    """
    _check_n(n)
    if not (isinstance(lam, (int, float)) and 0.0 < lam < 1.0):
        raise DomainError(f"lam must lie in (0, 1), got {lam!r}")
    _check_rate(c)
    d = renyi_divergence(pair, lam, Direction.REVERSE)
    if c >= d:
        raise DomainError(f"threshold_for_rate requires c < D_lambda(P1||P0) = {d:.6g}")
    return n * ((lam - 1.0) * d + c) / lam


def phase_transition_achievability(pair: DistributionPair, n: int, c: float) -> BoundResult:
    """Upper bound on beta_n(e^{-nc}) for rates below the divergence.

    beta_n(e^{-nc}) < inf e^{-n ((1-l)/l)(D_l(P1||P0) - c)}, the infimum
    over the l in (0, 1) with D_l(P1||P0) > c; each such l corresponds to
    the threshold test of :func:`threshold_for_rate` with the alpha term
    of the achievability bound dropped.
    """
    _check_n(n)
    _check_rate(c)
    atoms = _tilt_atoms(pair, Direction.REVERSE)
    if c >= atoms.kl:
        raise DomainError(
            f"phase_transition_achievability requires c < D(P1||P0) = {atoms.kl:.6g}; "
            "for c above the divergence use phase_transition_converse"
        )

    # The exponent n (c (l-1) - psi(l)) / l is stationary where H_0(l) = -c;
    # H_0(0) = 0 and H_0(1) = -D(P1||P0), so the root lies in (0, 1).
    lam, psi, psi_size = _tilt_root(atoms, 0.0, -c, 0.0, 1.0)
    # Near c = D the exponent is a small difference of terms of order
    # (l - 1) D; it is rounded down by a bound on their rounding error
    # so that the upper bound on beta never understates.
    h = lam - 1.0
    size = abs(c * h) + abs(psi) + psi_size
    ulps = (len(atoms.p) + 8) * _EPS
    exponent = n * (c * h - psi - ulps * size) / lam
    return _upper_beta(-exponent, lam, exponent > 0.0)


def _lower_n(value: float, optimizer: float | None) -> BoundResult:
    if not value >= 1.0:
        return BoundResult(1.0, 0.0, optimizer, BoundKind.LOWER_N, False)
    return BoundResult(value, math.log(value), optimizer, BoundKind.LOWER_N, True)


def sample_complexity_renyi(
    pair: DistributionPair, eps: float, delta: float, lam: float | None = None
) -> BoundResult:
    """Samples needed so some test has Type I error <= eps and Type II <= delta.

    For every l > 1,

        n >= max{ (log(1/delta) - (l/(l-1)) log(1/(1-eps))) / D_l(P0||P1),
                  (log(1/eps) - (l/(l-1)) log(1/(1-delta))) / D_l(P1||P0) }.

    With lam given the bound is evaluated there; otherwise it is
    maximized over l > 1.  Values below 1 clamp to 1 with valid=False.

    The first term's supremum is at least n exactly when branch two of
    ``renyi_converse`` at n, sup_l (l/(l-1)) log(1-eps) - n D_l(P0||P1),
    is at least log(delta).  That log bound decreases in n with slope
    -D_l*(P0||P1) at its optimal order l* (envelope theorem), so the
    supremum is the n where it equals log(delta), found by Newton in
    x = n D(P0||P1) from x = (sqrt(log 1/delta) - sqrt(log 1/(1-eps)))^2.
    For a Gaussian pair that start is the root, at the order
    sqrt(log 1/delta) / (sqrt(log 1/delta) - sqrt(log 1/(1-eps))) for
    every separation, and it is taken without Newton: at extreme
    separations branch two cannot be formed at n = x / D (at
    ``gaussian:0,1e+153`` n is near 1e-309 and psi overflows at the
    order; at ``gaussian:0,1e-160`` n overflows).  The second term is
    the first with P0 and P1 swapped and eps and delta swapped, so its
    supremum is the same crossing on the reverse record.  The optimizer is
    l* at the larger crossing.  When eps + delta >= 1 no term is positive:
    1, valid=False, optimizer inf.
    """
    _check_prob("eps", eps)
    _check_prob("delta", delta)
    if lam is not None and not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 1.0):
        raise DomainError(f"lam must be > 1, got {lam!r}")
    crossings = []
    # the term (log(1/b) - (l/(l-1)) log(1/(1-a))) / D_l in this direction
    for direction, a, b in ((Direction.FORWARD, eps, delta), (Direction.REVERSE, delta, eps)):
        d = kl_divergence(pair, direction)
        if not d > 0.0:
            raise DomainError("sample_complexity_renyi requires distinct distributions")
        top, bottom = -math.log(b), -math.log1p(-a)
        if lam is not None:
            # D_lam of a distinct pair is 0 only where psi(lam) underflows
            num, d_lam = top - lam / (lam - 1.0) * bottom, renyi_divergence(pair, lam, direction)
            crossings.append((num / d_lam if d_lam > 0.0 else math.inf if num > 0.0 else 0.0, lam))
            continue
        if not top > bottom:
            continue  # the term is negative for every l
        gap = math.sqrt(top) - math.sqrt(bottom)
        if isinstance(pair, GaussianPair):  # the start is the root (see the docstring)
            crossings.append((gap * gap / d, math.sqrt(top) / gap))
            continue
        atoms = _tilt_atoms(pair, direction)

        def resid(x):
            # branch two's log bound at n = x / d less log(b), with r and slope for
            # one more Newton step (_newton_root may stop 1e-10 relative from the root)
            val, lam_ = _branch_two(atoms, x / d, -bottom)
            ratio = 1.0 if lam_ == math.inf else lam_ / (lam_ - 1.0)
            r, slope = val + top, (ratio * -bottom - val) / -x
            return r, slope, abs(val) + top, (lam_, r, slope)

        # x = n D lies below top (the term is at most top / D_l <= top / D),
        # where branch two's log bound is at most -top.
        x, (lam_, r, slope) = _newton_root(resid, 0.0, top, gap * gap, 0.0)
        crossings.append(((x - r / slope if slope < 0.0 else x) / d, lam_))
    if not crossings:
        return _lower_n(0.0, math.inf)
    value, arg = max(crossings, key=lambda c: c[0])
    return _lower_n(value, arg)


def sample_complexity_pensia(pair: DistributionPair, eps: float, delta: float) -> BoundResult:
    """The comparison sample-size bound at its closed-form order l*.

    n >= (1/2) (l*/(1-l*)) log(1/(2 eps)) / D_{l*}(P0||P1) with
    l* = log(1/(2 delta)) / (log(1/(2 delta)) + log(1/(2 eps)));
    requires eps, delta < 1/2 and distinct distributions.
    """
    _check_prob("eps", eps, upper=0.5)
    _check_prob("delta", delta, upper=0.5)
    log_s = -math.log(2.0 * delta)
    log_e = -math.log(2.0 * eps)
    lam_star = log_s / (log_s + log_e)
    if not kl_divergence(pair, Direction.FORWARD) > 0.0:
        raise DomainError("sample_complexity_pensia requires distinct distributions")
    # D_lam of a distinct pair is 0 only where psi(lam) underflows
    d = renyi_divergence(pair, lam_star, Direction.FORWARD)
    value = 0.5 * (lam_star / (1.0 - lam_star)) * log_e / d if d > 0.0 else math.inf
    return _lower_n(value, lam_star)


def fano_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Weak-converse baseline beta >= e^{-n D(P0||P1) - log 2} / (1 - eps)."""
    _check_n(n)
    _check_log_eps(log_eps)
    d = kl_divergence(pair, Direction.FORWARD)
    log_value = -n * d - _LOG2 - log_diff_exp(0.0, log_eps)
    return _lower_beta(log_value, None)


def hellinger_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Hellinger baseline beta >= 1 - sqrt(1 - (1 - H^2)^{2n}) - eps."""
    _check_n(n)
    _check_log_eps(log_eps)
    # log(1 - H^2) from the record: log1p(-H^2) fails where H^2 rounds to 1
    log_affinity_2n = 2.0 * n * _tilt_atoms(pair, Direction.FORWARD).log_affinity
    x = -math.expm1(log_affinity_2n)  # 1 - (1 - H^2)^{2n} in [0, 1)
    # 1 - sqrt(x) = (1 - x) / (1 + sqrt(x)), which does not cancel as x -> 1
    value = math.exp(log_affinity_2n) / (1.0 + math.sqrt(x)) - math.exp(log_eps)
    if value <= 0.0:
        return _lower_beta(None, None)
    return _lower_beta(math.log(value), None)


def berry_esseen_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Berry-Esseen baseline on log beta, at its best slack parameter Delta.

    log beta >= -n D(P0||P1) - sqrt(n V) Q^{-1}(1 - eps - (B + Delta)/sqrt(n))
                + log Delta - (1/2) log n

    where V and B are the LLR variance and Berry-Esseen constant of the
    pair.  Delta ranges over (0, hi), hi = sqrt(n)(1 - eps) - B; if that
    interval is empty (the Q^{-1} argument leaves (0, 1) for every Delta)
    the bound is vacuous: value 0, valid=False.

    Delta is the maximizer over [1e-9, hi - 1e-9].  With x = Q^{-1}(w) and
    w the argument above, dx/dDelta = 1 / (sqrt(n) phi(x)), so the slope
    1/Delta - sqrt(V) / phi(x) has the sign of h(Delta) = phi(x) - Delta
    sqrt(V).  h is concave (phi o Q^{-1} is the Gaussian isoperimetric
    profile), h(0) = phi(x_0) > 0 (x_0 is x at Delta = 0) and
    h(hi) = -hi sqrt(V) < 0, so the maximizer is the one root of h (or an
    end, where h keeps one sign on the domain), found by safeguarded
    Newton with h' = -x / sqrt(n) - sqrt(V) from Delta_0 = phi(x_0) / sqrt(V).
    """
    _check_n(n)
    _check_log_eps(log_eps)
    m = llr_moments(pair)
    if m.variance <= 0.0:
        return _lower_beta(None, None)
    one_m_eps = -math.expm1(log_eps)
    sqrt_n = math.sqrt(n)
    hi = sqrt_n * one_m_eps - m.berry_constant
    if hi <= 0.0:
        return _lower_beta(None, None)
    sqrt_v = math.sqrt(m.variance)
    scale = sqrt_n * sqrt_v  # n V overflows for Gaussian pairs far apart
    shift = -n * m.mean - 0.5 * math.log(n)

    def x_at(dl):
        # Q^{-1} of the argument, or its limit inf where the argument rounds
        # to 0 or below, as at the end hi - 1e-9 once that rounds to hi (hi > 2^24)
        w = one_m_eps - (m.berry_constant + dl) / sqrt_n
        return q_inverse(w) if w > 0.0 else math.inf

    def h(dl):
        x = x_at(dl)
        phi = math.exp(-0.5 * x * x) / _SQRT_2PI
        return phi - dl * sqrt_v, -x / sqrt_n - sqrt_v, phi + dl * sqrt_v, None

    dl = _argmax_by_root(h, hi, h(0.0)[0] / sqrt_v)
    return _lower_beta(shift - scale * x_at(dl) + math.log(dl) if dl < hi else None, dl)


def smoothing_out_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Smoothing baseline for Gaussian pairs, at its best temperature t in (0, 10).

    log beta >= -n D + log(1 - eps) / (1 - e^{-2t}) - n t
                - (delta^2 / (2 sigma^2)) (e^t - 1)^2 - 2n sinh^2 t

    with D = delta^2 / (2 sigma^2).  A non-Gaussian pair raises
    :class:`DomainError`, as in the oracles.

    t is the maximizer over [1e-9, 10 - 1e-9].  The objective is concave:
    with L = log(1 - eps) its slope

        -L / (2 sinh^2 t) - n - d^2 (e^t - 1) e^t - 2n sinh 2t,  d^2 = 2 D,

    has the negative derivative L cosh t / sinh^3 t - d^2 e^t (2 e^t - 1)
    - 4n cosh 2t, so the maximizer is the one root of the slope (or the
    lower end, when the slope is already negative there), found by
    safeguarded Newton from t_0 = sqrt(-L / 2n), where the first two
    terms balance.
    """
    if not isinstance(pair, GaussianPair):
        raise DomainError("smoothing_out_bound requires a GaussianPair")
    _check_n(n)
    _check_log_eps(log_eps)
    d2 = _tilt_atoms(pair, Direction.FORWARD).var
    log_1m_eps = log_diff_exp(0.0, log_eps)

    def slope(t):
        sinh_t, e_t = math.sinh(t), math.exp(t)
        terms = (-log_1m_eps / (2.0 * sinh_t**2), n, d2 * math.expm1(t) * e_t,
                 2.0 * n * math.sinh(2.0 * t))
        curve = (log_1m_eps * math.cosh(t) / sinh_t**3 - d2 * e_t * (2.0 * e_t - 1.0)
                 - 4.0 * n * math.cosh(2.0 * t))
        return terms[0] - terms[1] - terms[2] - terms[3], curve, sum(terms), None

    start = math.sqrt(-log_1m_eps / (2.0 * n))
    t = _argmax_by_root(slope, 10.0, start)
    smoothed = log_1m_eps / -math.expm1(-2.0 * t)
    return _lower_beta(-n * d2 / 2.0 + smoothed - n * t - (d2 / 2.0) * math.expm1(t) ** 2
                       - 2.0 * n * math.sinh(t) ** 2, t)
