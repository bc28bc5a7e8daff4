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

  It states the phase transition too: at eps = e^{-nc}, log_eps = -c n,
  with a rate c > D(P1||P0), branch one tends to 1, and beta_n with it.
* ``fano_bound``, ``hellinger_bound``, ``berry_esseen_bound``,
  ``smoothing_out_bound``: the classical baselines it is compared with.

Achievability (upper) bounds:

* ``renyi_achievability_at_threshold``: for the likelihood-ratio test
  with log-LR threshold tau and Type I error alpha,

      beta < inf_{l in [0,1]}
             (e^{(l-1) n D_l(P1||P0)} - alpha e^{l tau}) / e^{(l-1) tau}

  which holds at both ends by continuity: e^tau (1 - alpha) at l = 0 and
  1 - alpha e^tau at l = 1.

* ``phase_transition_achievability``: the other side of the phase
  transition: at eps = e^{-nc}, log_eps = -c n, with a rate c < D(P1||P0),
  beta_n(e^{-nc}) < inf_{l} e^{-n ((1-l)/l)(D_l(P1||P0) - c)} over the
  l in (0,1) with D_l > c.  It is the threshold bound with alpha = 0 at
  tau = n (psi(l*) + c) / l*, l* its optimal order (psi and H_0 as
  below): H_0(l*) = -c gives n psi'(l*) = tau, so the threshold bound is
  minimized at l* itself, where its log n psi(l*) - (l* - 1) tau equals
  n (psi(l*) - (l* - 1) c) / l*, the rate form's.  So it is evaluated as
  the threshold bound at its own order: one value formula and one
  rounding bound, ``_threshold_log``, serve both.  Each takes its end
  l = 1 (log 0 at alpha = 0) wherever the root's rounded-up log would lie
  above it, so at alpha = 0 neither prints a bound above 1.

Solving for the order.  With psi(l) = log sum p^l q^{1-l} over the atoms
of the two distributions (convex: the log-moment generating function of
the log-likelihood ratio z = log p/q) and D_l = psi(l)/(l-1), each Renyi
objective above is stationary exactly where

    H_s(l) = psi(l) - (l - s) psi'(l) = target,

and H_s' = -(l - s) psi'' < 0 for l > s, so the optimal order is the one
root of a monotone function: s = 0 on the reverse atoms with target
log(eps)/n for branch one and for the phase bound, s = 1 on the
forward atoms with target log(1-eps)/n for branch two, and
s = top / (top - bottom) > 1 with target 0 for a term of the sample-size
bound (top = log 1/delta and bottom = log 1/(1-eps) on the forward atoms,
eps and delta swapped on the reverse ones).  One solver, ``_tilt_root``,
finds it in a handful of psi evaluations: safeguarded Newton from the
root of psi's quadratic model at l = 1, and it tests the l = inf end
itself.  The ends are exact: H_0(1) = -D(P1||P0), so branch one is
informative exactly when n D(P1||P0) < log(1/eps) and the phase root lies
in (0, 1) exactly when n D > log(1/eps); and when the target is at or below
H_s(inf) = log Q(A) + s D_inf (log P0(A) for both branches), Q the
record's second distribution and A the atoms where z is largest, the
optimum is the endpoint l = inf, reported as ``optimizer = inf`` with
the limit value (log eps + n D_inf(P1||P0) for branch one, log(1-eps) -
n D_inf(P0||P1) for branch two, (top - bottom) / D_inf for a sample-size
term).  For a Gaussian pair psi is the quadratic model itself, so Newton
starts at the root (the sample-size root is taken in closed form), and
D_inf = inf, so there is no l = inf end.

The threshold achievability bound minimizes the convex
u(l) = n psi(l) - l tau over l in [0, 1], so its order is the root of
n psi'(l) = tau, or the end beyond which that root lies.

The Berry-Esseen slack and the smoothing temperature are roots too: the
slope of each objective changes sign once, from + to -, so the maximizer
over the closed domain each bound states is the root of the slope, or the
end where it lies beyond the domain.  The threshold order searches
[0, 1], where psi(0) = psi(1) = 0 on the common support makes both ends
exact; the Berry-Esseen slack searches [0, hi], where its slope is
positive at 0 and negative at hi.  Only the smoothing temperature keeps
an offset domain, [1e-9, 10 - 1e-9]: its supremum can lie below 1e-9
(on 97 of the 195 exponential-regime Gaussian rows of ``reproduce``,
by up to 2e-6), and the floor stays until the benchmark
references that pin those cells are recaptured, since a floor of 1e-100
moves 20 ``reproduce`` values past their 1e-6 tolerance.  Every optimized
bound is a root or a closed form, and every root comes from the same
Newton iteration, :func:`htbounds.numerics._newton_root`.

Sample-size bounds: ``sample_complexity_renyi`` (valid for every l > 1,
optimized over l when none is given) and ``sample_complexity_pensia``
(the comparison bound at its closed-form l*).

Every bound returns a :class:`BoundResult`, which stores the bound's own
log, unclamped, and derives its value and validity from it.  A bound on
beta is valid exactly when -inf < log_value <= 0; a sample-size bound is
valid exactly when log_value >= 0.
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
    "renyi_achievability_at_threshold",
    "renyi_converse",
    "sample_complexity_pensia",
    "sample_complexity_renyi",
    "smoothing_out_bound",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class BoundKind(Enum):
    """What a result's value is: a bound on beta or on n, or the exact beta of an oracle.

    The kind sets how ``BoundResult`` reads its log: every kind but
    LOWER_N is a probability, capped at 1 and valid in (-inf, 0]; a LOWER_N
    is a sample size, floored at 1 and valid in [0, inf].
    """

    LOWER_BETA = "lower_bound_on_beta"
    UPPER_BETA = "upper_bound_on_beta"
    LOWER_N = "lower_bound_on_n"
    EXACT_BETA = "exact_beta"


@dataclass(frozen=True)
class BoundResult:
    """A bound's log value, the optimizing free parameter, and kind.

    The log is the one stored number, never clamped; ``value`` and
    ``valid`` are read from it.  A bound on beta, or an exact beta, is valid
    exactly when -inf < log_value <= 0: a log of -inf is a bound with no
    positive value or a failed premise, and one above 0 carries no
    information about a probability.  A sample-size bound is valid exactly
    when log_value >= 0.  A grid's oracle cell is one too: kind EXACT_BETA,
    with the oracle's test threshold as optimizer.
    """

    log_value: float
    optimizer: float | None
    kind: BoundKind

    @property
    def value(self) -> float:
        """exp(log_value); a bound on beta caps it at 1, a sample size floors it at 1."""
        if self.kind is BoundKind.LOWER_N:
            return math.exp(max(self.log_value, 0.0))
        return math.exp(min(self.log_value, 0.0))

    @property
    def valid(self) -> bool:
        """Whether the log lies in the kind's informative range (see the class docstring)."""
        if self.kind is BoundKind.LOWER_N:
            return self.log_value >= 0.0
        return -math.inf < self.log_value <= 0.0


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


def _lower_beta(log_value: float, optimizer: float | None) -> BoundResult:
    return BoundResult(log_value, optimizer, BoundKind.LOWER_BETA)


def _tilt_root(atoms: _TiltAtoms, s: float, target: float, lo: float, hi: float,
               ds: float = 0.0) -> tuple[float, float | None, float | None]:
    """The order l in (lo, hi) where H_s(l) = psi(l) - (l - s) psi'(l) = target.

    psi is the tilted log-sum over ``atoms``, one pair's record.  The
    order is s + ``ds``, with ds the part that the float s cannot hold:
    the residual forms l - s as (l - s) - ds, and the start and the l = inf
    test below read s alone, which moves them by an ulp of s at most.  The
    sample-size bound passes s = top / (top - bottom) and
    ds = sigma - (s - 1), sigma = bottom / (top - bottom), so that the
    residual carries (l - 1) - sigma with sigma to a few ulps of itself;
    the float s keeps sigma = s - 1 only to an ulp of 1: at
    eps = 1.9e-12, delta = 1.8e-12 it turns 7.026e-14 into 7.039e-14 and
    moves n by 2.2e-13 relative, and at eps <= 1e-100 s is exactly 1.  The
    other callers pass ds = 0, which leaves every bit as it was.
    Since H_s' = -(l - s) psi'', H_s increases up to s and strictly
    decreases beyond; the caller guarantees H_s(lo) > target, so the one
    root lies past s, and target > H_s(hi) for a finite hi.  For hi = inf,
    H_s falls to H_s(inf) = log Q(A) + s D_inf, A the atoms where z is
    largest: at or below it there is no root, and the optimum is the
    l = inf end (a Gaussian record, with D_inf = inf, has none).  Newton
    starts where psi(1 + h) ~ psi'(1) h + psi''(1) h^2 / 2, a quadratic
    model that is exact for a Gaussian pair, puts the root,

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
        h = (x - s) - ds
        size = abs(psi) + abs(h * mean) + abs(target)
        return psi - h * mean - target, -h * var, size, (psi, psi_size)

    lam, (psi, psi_size) = _newton_root(resid, lo, hi, start, s)
    return lam, psi, psi_size


def _argmax_by_root(slope: Callable, lo: float, hi: float, start: float) -> float:
    """Maximizer over [lo, hi] of an objective whose slope changes sign once.

    The slope goes from + to - (it may stay on one side); ``slope`` follows
    the contract of :func:`htbounds.numerics._newton_root`.  The domain is
    the caller's, closed, with 0 <= lo < hi, and ``slope`` answers at both
    ends; an optimum at or beyond either end is reported at that end.
    """
    if slope(lo)[0] <= 0.0:
        return lo
    if slope(hi)[0] >= 0.0:
        return hi
    return _newton_root(slope, lo, hi, start, 0.0)[0]


def _branch_one(rev: _TiltAtoms, n: int, log_eps: float) -> tuple[float, float | None]:
    """Branch one's log bound log(1 - e^{g*}) and its order l*.

    g* = inf_{l>1} ((l-1)/l)(log_eps + n D_l(P1||P0)).  With
    t = log_eps / n, g is stationary where H_0(l) = t; H_0(1) =
    -D(P1||P0), so the root lies in (1, inf) exactly when n D < log(1/eps),
    and when t <= H_0(inf) = log P0(argmax p1/p0) g decreases all the way
    and g* is its l = inf limit log_eps + n D_inf(P1||P0).  The log bound
    is -inf where g* >= 0 (vacuous), and l* is None where g* is the l -> 1
    limit 0.
    """
    t = log_eps / n
    if t >= -rev.kl:
        return -math.inf, None
    lam, psi, _ = _tilt_root(rev, 0.0, t, 1.0, math.inf)
    g = log_eps + n * rev.d_inf if lam == math.inf else ((lam - 1.0) * log_eps + n * psi) / lam
    return (log_diff_exp(0.0, g) if g < 0.0 else -math.inf), lam


def _branch_two(fwd: _TiltAtoms, n: int, log_1m_eps: float) -> tuple[float, float]:
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

    It is the converse at every budget, the phase transition's included:
    at eps = e^{-nc}, log_eps = -c n, branch one reads

        beta_n(e^{-nc}) >= 1 - inf_{l>1} e^{-n ((l-1)/l)(c - D_l(P1||P0))},

    which tends to 1 for a rate c > D(P1||P0): above the divergence every
    test fails.  Below it :func:`phase_transition_achievability` drives
    beta to 0.
    """
    _check_n(n)
    _check_log_eps(log_eps)
    log_one, lam_one = _branch_one(_tilt_atoms(pair, Direction.REVERSE), n, log_eps)
    # log(1 - eps) is finite for every finite log_eps < 0: 1 - eps is at
    # least the smallest subnormal even where eps itself rounds to 1.
    log_two, lam_two = _branch_two(_tilt_atoms(pair, Direction.FORWARD), n,
                                   log_diff_exp(0.0, log_eps))
    if log_one > -math.inf and log_one >= log_two:
        return _lower_beta(log_one, lam_one)
    return _lower_beta(log_two, lam_two)


def _phase_converse(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """The sweep's ``phase_converse`` cell: branch one alone, where log eps / n < -D(P1||P0).

    It is never above :func:`renyi_converse` at the same budget.  The cell
    stays only while the benchmark's sweep-phase workload asks for its
    column; ROADMAP direction 14 deletes it together with the column.
    """
    _check_n(n)
    _check_log_eps(log_eps)
    rev = _tilt_atoms(pair, Direction.REVERSE)
    if log_eps / n >= -rev.kl:
        raise DomainError(f"phase_converse requires log_eps / n < -D(P1||P0) = {-rev.kl:.6g}")
    return _lower_beta(*_branch_one(rev, n, log_eps))


def _threshold_log(atoms: _TiltAtoms, n: int, lam: float, psi: float, psi_size: float,
                   tau: float, log_alpha: float) -> float:
    """The threshold bound's log at the order lam, rounded up; -inf where u <= log alpha.

    With u = n psi - lam tau, the log is n psi - (lam - 1) tau +
    log(1 - alpha e^{-u}), ``psi`` and ``psi_size`` being
    :func:`htbounds.distributions._tilt`'s psi(lam) and size over ``atoms``.
    The first two terms are formed as they stand, which keeps their
    accuracy where they nearly cancel (tau near n D(P1||P0)), and the sum
    is rounded up by a bound on its rounding error, so that the bound on
    beta never understates.  Where u <= log alpha the numerator
    e^u - alpha is not positive: the premise fails.
    """
    h = lam - 1.0
    u, base = n * psi - lam * tau, n * psi - h * tau
    if not u > log_alpha:
        return -math.inf
    # Bounds on the rounding errors of base and u, each term scaled on its
    # own so that no sum of two terms near the float range overflows.  The
    # error of u enters log(1 - alpha e^{-u}) with the factor
    # e^r / (1 - e^r), where r = log alpha - u < 0, which stays finite
    # however large -r is.
    ulps = (len(atoms.p) + 8) * _EPS
    size = ulps * n * (abs(psi) + psi_size)
    err_base, err_u = size + ulps * abs(h * tau), size + ulps * abs(lam * tau)
    r = log_alpha - u
    corr = log_diff_exp(0.0, r)
    err = err_base + err_u * math.exp(r) / -math.expm1(r) + 4.0 * _EPS * abs(corr)
    return base + corr + err


def renyi_achievability_at_threshold(
    pair: DistributionPair, n: int, tau: float, log_alpha: float
) -> BoundResult:
    """Upper bound on beta of the log-LR-threshold-tau test with Type I error alpha.

    Minimizes (e^{(l-1) n D_l(P1||P0)} - alpha e^{l tau}) / e^{(l-1) tau}
    over l in [0, 1].  With psi the reverse-direction tilted log-sum,
    (l-1) D_l = psi(l), and with u(l) = n psi(l) - l tau the log of the
    expression is tau + log(e^u - alpha), which increases in u.  u is
    convex, so the minimizer is that of u: the root of n psi'(l) = tau,
    or the end beyond which it lies.  psi(0) = psi(1) = 0 on the pair's
    common support, so both ends evaluate exactly, to e^tau (1 - alpha)
    at l = 0 (tau below n psi'(0) = -n D(P0||P1)) and 1 - alpha e^tau at
    l = 1 (tau above n psi'(1) = n D(P1||P0)).  For a Gaussian pair, where
    psi'(l) = (l - 1/2) d^2 with d = delta / sigma, Newton's start
    l = 1 + (tau / n - psi'(1)) / psi''(1) = 1/2 + tau / (n d^2) is the root.
    The log value is :func:`_threshold_log`'s, rounded up so that the bound
    on beta never understates; the rate form of
    :func:`phase_transition_achievability` is the same formula at its own
    order.  It is the smaller of that value at the root and at the end
    l = 1, where psi(1) = 0 exactly: where tau lies within a few 1e-13
    relative of n D(P1||P0), the root's rounding bound can exceed its
    margin below 0, and the end's log(1 - alpha e^tau) is the bound.  The
    optimizer is the order whose value is returned.

    The expression decreases in alpha, so log_alpha must be the exact
    Type I error of the test, or a *lower* bound on it; log_alpha = -inf
    (alpha = 0) is always safe.  Where min u <= log alpha the numerator is
    non-positive at the minimizer, so the premise fails: the result is
    log -inf with optimizer None, which is not valid.
    """
    _check_n(n)
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)):
        raise DomainError(f"tau must be finite, got {tau!r}")
    _check_log_prob("log_alpha", log_alpha)
    atoms = _tilt_atoms(pair, Direction.REVERSE)
    t = tau / n

    def slope(x):
        _, mean, var, _ = _tilt(atoms, x)
        return t - mean, -var, abs(t) + abs(mean), None

    d, v = atoms.kl, atoms.var
    lam = _argmax_by_root(slope, 0.0, 1.0, 1.0 + (t - d) / v if v > 0.0 else 0.5)
    psi, _, _, psi_size = _tilt(atoms, lam)
    # the end l = 1, where psi = 0 exactly, wherever the root's rounded-up log lies above it
    log_value, lam = min((_threshold_log(atoms, n, lam, psi, psi_size, tau, log_alpha), lam),
                         (_threshold_log(atoms, n, 1.0, 0.0, 0.0, tau, log_alpha), 1.0))
    return BoundResult(log_value, lam if log_value > -math.inf else None, BoundKind.UPPER_BETA)


def phase_transition_achievability(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Upper bound on beta_n(eps) below the divergence, -D(P1||P0) < log_eps / n < 0.

    At eps = e^{-nc}, log_eps = -c n, with a rate c < D(P1||P0), it reads

        beta_n(e^{-nc}) < inf e^{-n ((1-l)/l)(D_l(P1||P0) - c)},

    the infimum over the l in (0, 1) with D_l(P1||P0) > c.  It is the
    bound of :func:`renyi_achievability_at_threshold` with alpha = 0 at the
    threshold tau = n (psi(l*) + c) / l*, l* the optimal order below and psi
    the reverse-direction tilted log-sum: H_0(l*) = -c gives n psi'(l*) = tau,
    so the threshold bound is minimized at l* itself, where its log
    n psi(l*) - (l* - 1) tau is n (psi(l*) - (l* - 1) c) / l*, this bound's.
    It is evaluated as exactly that, the threshold bound at its own order:
    :func:`_threshold_log` at l* and that tau, with psi(l*) and its size
    from the root.  That is this bound's value at every l, not only at an
    exact l*, since n psi(l) - (l - 1) n (psi(l) + c) / l is
    n (psi(l) - (l - 1) c) / l identically, and the rounding of tau lies
    in the |(l - 1) tau| term of the rounding bound; the error of psi(l*)
    that tau carries reaches the log as n / l* times it, and the size
    passed counts it.  Where that rounded-up log lies above 0 (c within a
    few 1e-13 relative of D), or is NaN (tau past the float range), the
    bound is the end l = 1, log 0, the threshold bound's there at
    alpha = 0, and the optimizer is 1.  The rate is read as -c = log_eps / n,
    which rounds once; a budget where it is at or below -D(P1||P0), the
    side :func:`renyi_converse` states, or rounds to 0 raises
    :class:`DomainError`.
    """
    _check_n(n)
    _check_log_eps(log_eps)
    atoms = _tilt_atoms(pair, Direction.REVERSE)
    t = log_eps / n
    if not -atoms.kl < t < 0.0:
        raise DomainError(f"phase_transition_achievability requires -D(P1||P0) = {-atoms.kl:.6g}"
                          " < log_eps / n < 0; above the divergence use renyi_converse")

    # The exponent n (c (l-1) - psi(l)) / l, c = -t, is stationary where H_0(l) = t;
    # H_0(0) = 0 and H_0(1) = -D(P1||P0), so the root lies in (0, 1).
    lam, psi, psi_size = _tilt_root(atoms, 0.0, t, 0.0, 1.0)
    # the size passed turns _threshold_log's n (|psi| + size) into n (|psi| + size) / lam
    log_value = _threshold_log(atoms, n, lam, psi, (abs(psi) + psi_size) / lam - abs(psi),
                               n * (psi - t) / lam, -math.inf)
    if not log_value <= 0.0:
        log_value, lam = 0.0, 1.0
    return BoundResult(log_value, lam, BoundKind.UPPER_BETA)


def _lower_n(value: float, optimizer: float | None) -> BoundResult:
    # log -inf where no term is positive
    return BoundResult(math.log(value) if value > 0.0 else -math.inf, optimizer, BoundKind.LOWER_N)


def sample_complexity_renyi(
    pair: DistributionPair, eps: float, delta: float, lam: float | None = None
) -> BoundResult:
    """Samples needed so some test has Type I error <= eps and Type II <= delta.

    For every l > 1,

        n >= max{ (log(1/delta) - (l/(l-1)) log(1/(1-eps))) / D_l(P0||P1),
                  (log(1/eps) - (l/(l-1)) log(1/(1-delta))) / D_l(P1||P0) }.

    With lam given the bound is evaluated there; otherwise it is
    maximized over l > 1.  A value below 1 keeps its log and is not valid.

    In a direction's record, with (a, b) = (eps, delta) forward and
    (delta, eps) reverse, top = log(1/b), bottom = log(1/(1-a)) and psi
    the record's tilted log-sum (D_l = psi(l) / (l - 1)), the term is
    T(l) = ((l - 1) top - l bottom) / psi(l), negative for every l unless
    top > bottom.  Its slope is (top - bottom) H_s(l) / psi(l)^2 with
    H_s = psi - (l - s) psi' and s = top / (top - bottom) > 1, so the
    supremum is at the one root of H_s = 0 past s, from ``_tilt_root``
    with s - 1 carried as sigma = bottom / (top - bottom) (see there), or
    at its l = inf end, T(inf) = (top - bottom) / D_inf.  For a Gaussian
    pair psi = l (l - 1) D, and the root is the closed form
    l* = s + sqrt(s (s - 1)) = sqrt(top) / gap, gap = sqrt(top) -
    sqrt(bottom), with T(l*) = gap^2 / D.  It is taken without the solver,
    which on a Gaussian record returned the order 1.0466 for 1.0490 at
    ``gaussian:0,1e-160`` (eps = delta = 0.01) and overflowed forming its
    start at ``gaussian:0,1e153`` (eps = e^-1/2, delta = e^-1).  The
    optimizer is l* of the larger term.  When eps + delta >= 1 no term is
    positive: log -inf, optimizer inf.
    """
    _check_prob("eps", eps)
    _check_prob("delta", delta)
    if lam is not None and not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 1.0):
        raise DomainError(f"lam must be > 1, got {lam!r}")
    crossings = []
    # the term (log(1/b) - (l/(l-1)) log(1/(1-a))) / D_l in this direction
    for direction, a, b in ((Direction.FORWARD, eps, delta), (Direction.REVERSE, delta, eps)):
        atoms = _tilt_atoms(pair, direction)
        if not atoms.kl > 0.0:
            raise DomainError("sample_complexity_renyi requires distinct distributions")
        top, bottom = -math.log(b), -math.log1p(-a)
        if lam is not None:
            # D_lam of a distinct pair is 0 only where psi(lam) underflows
            num, d_lam = top - lam / (lam - 1.0) * bottom, renyi_divergence(pair, lam, direction)
            crossings.append((num / d_lam if d_lam > 0.0 else math.inf if num > 0.0 else 0.0, lam))
            continue
        if not top > bottom:
            continue  # the term is negative for every l
        if isinstance(pair, GaussianPair):  # the root in closed form (see the docstring)
            gap = math.sqrt(top) - math.sqrt(bottom)
            crossings.append((gap * gap / atoms.kl, math.sqrt(top) / gap))
            continue
        s = top / (top - bottom)  # with ds below, s + ds = 1 + sigma keeps sigma's digits
        order, psi, _ = _tilt_root(atoms, s, 0.0, s, math.inf, bottom / (top - bottom) - (s - 1.0))
        end = order == math.inf  # the term's l = inf limit is (top - bottom) / D_inf
        if not (end or psi > 0.0):
            continue  # psi(l*) rounds to 0 or below: the record cannot resolve the term
        num = top - bottom if end else (order - 1.0) * top - order * bottom
        crossings.append((num / (atoms.d_inf if end else psi), order))
    if not crossings:
        return _lower_n(0.0, math.inf)
    value, arg = max(crossings, key=lambda c: c[0])
    return _lower_n(value, arg)


def sample_complexity_pensia(pair: DistributionPair, eps: float, delta: float) -> BoundResult:
    """The comparison sample-size bound at its closed-form order l*.

    n >= (1/2) (l*/(1-l*)) log(1/(2 eps)) / D_{l*}(P0||P1) with
    l* = log(1/(2 delta)) / (log(1/(2 delta)) + log(1/(2 eps)));
    requires eps, delta < 1/2 and distinct distributions.

    It is a theorem only where its premise holds.  A test on n samples
    with errors (a, b) maps P0^n and P1^n to two-point laws, so data
    processing at an order l in (0, 1), where D_l = log(sum p^l q^(1-l))
    / (l - 1), gives

        f(a, b) = (1 - a)^l b^(1-l) + a^l (1 - b)^(1-l) >= e^{-n (1-l) D_l(P0||P1)}.

    While a + b < 1, df/da = l (((1 - b)/a)^(1-l) - (b/(1 - a))^(1-l)) > 0,
    and likewise df/db > 0, so a test with a <= eps and b <= delta has
    f(a, b) <= f(eps, delta), and every such test needs

        n >= -log f(eps, delta) / ((1 - l) D_l(P0||P1)).

    The printed form is (1/2) l* log(1/(2 eps)) / ((1 - l*) D_{l*}), so it
    is below that bound at l = l*, and sound, wherever
    (1/2) l* log(1/(2 eps)) <= -log f(eps, delta); elsewhere it raises
    :class:`DomainError`.  At ``gaussian:0,0.0016916``, eps = 0.321,
    delta = 0.380 the premise fails (0.0847 > 0.0445), and the printed
    form, 250,778, exceeds the exact n* = 207,406.

    log f is a log-sum-exp of f's two terms where f <= 1/2.  But f is 1 at
    l = 0 and at l = 1, and l* nears 0 as delta nears 1/2 (1 as eps does),
    where both sides of the premise vanish with l* (1 - l*): there the
    log-sum-exp keeps no digit of log f, and passed the premise at
    eps = 0.328, delta = 1/2 - 2^-54 with a form twice n*.  So above
    f = 1/2, log f is log1p(f - 1), with f - 1 = delta
    expm1(l log((1 - eps)/delta)) + (1 - delta) expm1(l log(eps/(1 - delta)))
    for l* <= 1/2, and for l* > 1/2 the same with (l, eps, delta) read as
    (1 - l, delta, eps), which leaves f unchanged.
    """
    _check_prob("eps", eps, upper=0.5)
    _check_prob("delta", delta, upper=0.5)
    log_s = -math.log(2.0 * delta)
    log_e = -math.log(2.0 * eps)
    lam_star = log_s / (log_s + log_e)
    if not kl_divergence(pair, Direction.FORWARD) > 0.0:
        raise DomainError("sample_complexity_pensia requires distinct distributions")
    # log f(eps, delta) at l*: a log-sum-exp of its two terms, and above f = 1/2
    # log1p(f - 1) about the nearer end l = 0 or 1 (see the docstring)
    lam, a, b = (lam_star, eps, delta) if lam_star <= 0.5 else (log_e / (log_s + log_e), delta, eps)
    terms = (lam * math.log1p(-a) + (1.0 - lam) * math.log(b),
             lam * math.log(a) + (1.0 - lam) * math.log1p(-b))
    log_f = max(terms) + math.log1p(math.exp(min(terms) - max(terms)))
    if log_f > -_LOG2:
        log_f = math.log1p(b * math.expm1(lam * math.log((1.0 - a) / b))
                           + (1.0 - b) * math.expm1(lam * math.log(a / (1.0 - b))))
    if 0.5 * lam_star * log_e > -log_f:
        raise DomainError(f"sample_complexity_pensia holds only where (l*/2) log(1/(2 eps)) <= "
                          f"-log f(eps, delta); here {0.5 * lam_star * log_e:.3g} > {-log_f:.3g}")
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
    log_root = log_affinity_2n - math.log1p(math.sqrt(x))
    return _lower_beta(log_diff_exp(log_root, log_eps) if log_root >= log_eps else -math.inf, None)


def berry_esseen_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Berry-Esseen baseline on log beta, at its best slack parameter Delta.

    log beta >= -n D(P0||P1) - sqrt(n V) Q^{-1}(1 - eps - (B + Delta)/sqrt(n))
                + log Delta - (1/2) log n

    where D, V and B are the mean, the variance and the Berry-Esseen
    constant 6 E|Z - D|^3 / V^{3/2} of the log-likelihood ratio
    Z = log(p0/p1) under P0: the ``kl``, ``var`` and ``berry`` of the
    pair's forward record (:func:`htbounds.distributions._tilt_atoms`).
    Delta ranges over (0, hi), hi = sqrt(n)(1 - eps) - B; if that interval
    is empty (the Q^{-1} argument leaves (0, 1) for every Delta) the bound
    is vacuous: log -inf.

    Delta is the maximizer over [0, hi].  With x = Q^{-1}(w) and w the
    argument above, dx/dDelta = 1 / (sqrt(n) phi(x)), so the slope
    1/Delta - sqrt(V) / phi(x) has the sign of h(Delta) = phi(x) - Delta
    sqrt(V).  h is concave (phi o Q^{-1} is the Gaussian isoperimetric
    profile), h(0) = phi(x_0) > 0 (x_0 is x at Delta = 0) and
    h(hi) = -hi sqrt(V) < 0, so the maximizer is the one root of h, found
    by safeguarded Newton with h' = -x / sqrt(n) - sqrt(V) from
    Delta_0 = phi(x_0) / sqrt(V).  Both ends give log -inf (log 0 at
    Delta = 0, Q^{-1}(0) = inf at hi).  x is formed as -Q^{-1}(1 - w),
    from 1 - w = eps + (B + Delta)/sqrt(n) itself, so that no argument
    rounds to 1 at any n.  The search stops at Delta = 0 only where 1 - w
    rounds to 1 or above there, so that h(0) = 0 and the bound is that
    end's -inf.
    """
    _check_n(n)
    _check_log_eps(log_eps)
    atoms = _tilt_atoms(pair, Direction.FORWARD)
    if atoms.var <= 0.0:
        return _lower_beta(-math.inf, None)
    eps, one_m_eps = math.exp(log_eps), -math.expm1(log_eps)
    sqrt_n = math.sqrt(n)
    hi = sqrt_n * one_m_eps - atoms.berry
    if hi <= 0.0:
        return _lower_beta(-math.inf, None)
    sqrt_v = math.sqrt(atoms.var)
    scale = sqrt_n * sqrt_v  # n V overflows for Gaussian pairs far apart
    shift = -n * atoms.kl - 0.5 * math.log(n)

    def x_at(dl):
        # Q^{-1}(w) = -Q^{-1}(1 - w): w itself rounds to 1 once eps and
        # (B + Delta)/sqrt(n) are below half an ulp of 1.  The limit is inf
        # where 1 - w rounds to 1 or above, as it may at the end hi
        tail = eps + (atoms.berry + dl) / sqrt_n
        return -q_inverse(tail) if tail < 1.0 else math.inf

    def h(dl):
        x = x_at(dl)
        phi = math.exp(-0.5 * x * x) / _SQRT_2PI
        return phi - dl * sqrt_v, -x / sqrt_n - sqrt_v, phi + dl * sqrt_v, None

    dl = _argmax_by_root(h, 0.0, hi, h(0.0)[0] / sqrt_v)
    return _lower_beta(shift - scale * x_at(dl) + math.log(dl) if 0.0 < dl < hi else -math.inf,
                       dl)


def smoothing_out_bound(pair: DistributionPair, n: int, log_eps: float) -> BoundResult:
    """Smoothing baseline for Gaussian pairs, at its best temperature t in (0, 10).

    log beta >= -n D + log(1 - eps) / (1 - e^{-2t}) - n t
                - (delta^2 / (2 sigma^2)) (e^t - 1)^2 - 2n sinh^2 t

    with D = delta^2 / (2 sigma^2).  A non-Gaussian pair raises
    :class:`DomainError`, as in the oracles.

    t is the maximizer over [1e-9, 10 - 1e-9], the one offset domain of
    the library: the supremum can lie below t = 1e-9 (see the module
    docstring), and the floor stays until the benchmark references that
    pin those cells are recaptured.  The objective is concave:
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
    t = _argmax_by_root(slope, 1.0e-9, 10.0 - 1.0e-9, start)  # the floor: see the docstring
    smoothed = log_1m_eps / -math.expm1(-2.0 * t)
    return _lower_beta(-n * d2 / 2.0 + smoothed - n * t - (d2 / 2.0) * math.expm1(t) ** 2
                       - 2.0 * n * math.sinh(t) ** 2, t)
