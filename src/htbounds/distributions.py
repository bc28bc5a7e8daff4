"""Distribution pairs and their divergence functionals.

A *pair* is the simple-vs-simple testing problem (P0, P1) on a common
sample space: Bernoulli with success probabilities (p0, p1), Gaussian
with means mu and mu + delta at shared standard deviation sigma, or a
finite discrete pair given by two probability vectors over the same
support.  Everything downstream (bounds, oracles, experiments) consumes
pairs only through the functionals defined here.

Conventions: Direction.FORWARD means the functional's first argument is
the null P0 (so kl_divergence(pair, FORWARD) = D(P0 || P1)), REVERSE
swaps the roles.  Every divergence is read from one cached record per
pair and direction (:func:`_tilt_atoms`) and the tilted log-sum
:func:`_tilt` over it, in scalar ``math``; the record also holds the
constants the baselines read, such as the forward record's mean,
variance and Berry-Esseen constant of log(p0/p1) under P0.  A discrete
record holds the atoms, and each sum over them is a ``math.fsum``:
correctly rounded, the same on every Python, and within the (K - 1) eps
of a sequential sum of K terms.  A Gaussian record holds no atoms, only
d^2 = (delta / sigma)^2, exact for any sigma because the testing problem
(mu, delta, sigma) rescales to (0, delta/sigma, 1).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

from .numerics import DomainError

__all__ = [
    "BernoulliPair",
    "Direction",
    "DistributionPair",
    "FiniteDiscretePair",
    "GaussianPair",
    "PairSpecError",
    "kl_divergence",
    "parse_pair",
    "renyi_divergence",
]


class PairSpecError(DomainError):
    """A textual pair spec failed to parse; ``offset`` points at the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Direction(Enum):
    """Argument order of a divergence: FORWARD is D(P0 || P1)."""

    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class BernoulliPair:
    """Bernoulli(p0) versus Bernoulli(p1), with p0 != p1."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        for name, p in (("p0", self.p0), ("p1", self.p1)):
            if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
                raise DomainError(f"BernoulliPair requires 0 < {name} < 1, got {p!r}")
        if self.p0 == self.p1:
            raise DomainError("BernoulliPair requires p0 != p1")


@dataclass(frozen=True)
class GaussianPair:
    """N(mu, sigma^2) versus N(mu + delta, sigma^2), with delta != 0.

    (delta / sigma)^2 must be a positive finite float: a separation whose
    square underflows to 0 or overflows raises :class:`DomainError`.
    """

    mu: float
    delta: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mu, self.delta, self.sigma)):
            raise DomainError("GaussianPair parameters must be finite")
        if self.sigma <= 0.0:
            raise DomainError(f"GaussianPair requires sigma > 0, got {self.sigma}")
        if self.delta == 0.0:
            raise DomainError("GaussianPair requires delta != 0")
        # Every divergence is a multiple of (delta / sigma)^2; it must be a
        # positive finite float, or the bounds divide by 0 or overflow.
        z = self.delta / self.sigma
        if not 0.0 < z * z < math.inf:
            raise DomainError(
                f"GaussianPair requires (delta / sigma)^2 in the float range, "
                f"got delta / sigma = {z!r}"
            )


@dataclass(frozen=True)
class FiniteDiscretePair:
    """Two probability vectors over the same finite support.

    The vectors must have equal length (at least 2), sum to 1 within
    1e-12, and share their support exactly: p0[i] > 0 iff p1[i] > 0.
    Identical vectors are allowed (the degenerate testing problem).
    """

    p0: tuple[float, ...]
    p1: tuple[float, ...]

    def __post_init__(self) -> None:
        p0 = tuple(float(v) for v in self.p0)
        p1 = tuple(float(v) for v in self.p1)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        if len(p0) != len(p1):
            raise DomainError("FiniteDiscretePair vectors must have equal length")
        if len(p0) < 2:
            raise DomainError("FiniteDiscretePair needs a support of size >= 2")
        for name, vec in (("p0", p0), ("p1", p1)):
            if any(not (math.isfinite(v) and v >= 0.0) for v in vec):
                raise DomainError(f"FiniteDiscretePair {name} entries must be finite and >= 0")
            if abs(math.fsum(vec) - 1.0) > 1e-12:
                raise DomainError(f"FiniteDiscretePair {name} must sum to 1 within 1e-12")
        if any((a > 0.0) != (b > 0.0) for a, b in zip(p0, p1)):
            raise DomainError("FiniteDiscretePair supports must match: p0[i] > 0 iff p1[i] > 0")


DistributionPair = Union[BernoulliPair, GaussianPair, FiniteDiscretePair]


class _TiltAtoms(NamedTuple):
    logp: tuple[float, ...]  # log p
    p: tuple[float, ...]  # the first argument's atoms, renormalized to sum 1
    q: tuple[float, ...]  # the second argument's atoms, renormalized to sum 1
    z: tuple[float, ...]  # log(p / q)
    z_abs: float  # max |z|
    z_min: float  # min z
    d_inf: float  # D_inf = max z
    log_q_top: float  # log Q(A), A the atoms where z = D_inf
    kl: float = math.nan  # D(P || Q) = sum p z = psi'(1)
    var: float = math.nan  # sum p (z - kl)^2 = psi''(1)
    berry: float = math.nan  # 6 sum (p s^2) s, s = |z - kl| / sqrt(var); 0 if var = 0
    log_affinity: float = math.nan  # min(psi(1/2), 0) = log(1 - H^2), H the Hellinger distance


@functools.lru_cache(maxsize=256)
def _tilt_atoms(pair: DistributionPair, direction: Direction) -> _TiltAtoms:
    """The one record of a pair: its atoms (first, second argument) and constants.

    Cached per (pair, direction), in tuples no caller can change.  A
    Gaussian record has no atoms; with d = |delta| / sigma it holds
    kl = d^2 / 2, var = d^2, berry = 6 sqrt(8 / pi) and
    log_affinity = -d^2 / 8, and z is unbounded (D_inf = inf, Q(A) = 0),
    so there is no lam = inf end.  For a discrete pair, atoms where both
    vectors vanish are dropped; each vector is divided by its fsum.  z is
    log1p((p - q) / q) where p / q lies within (1/2, 3/2), so it keeps its
    relative accuracy as p -> q, where log p - log q cancels.  The
    constants (nan until filled in) come from :func:`_tilt` on the atoms:
    kl and var at lam = 1, log_affinity at lam = 1/2.  The Berry-Esseen
    constant 6 rho / sigma^3 (rho = sum p |z - kl|^3, sigma^2 = var) is
    6 sum (p s^2) s over s = |z - kl| / sigma, in which p s^2 <= 1 and
    s <= max|z| / sigma, so it neither divides by 0 nor overflows where
    sigma^3 or rho leaves the normal range (sigma^2 < 1e-205).
    """
    if isinstance(pair, GaussianPair):
        d, d2 = abs(pair.delta) / pair.sigma, (pair.delta / pair.sigma) ** 2
        return _TiltAtoms((), (), (), (), math.inf, -math.inf, math.inf, -math.inf,
                          d2 / 2.0, d * d, 6.0 * math.sqrt(8.0 / math.pi), -d2 / 8.0)
    if isinstance(pair, BernoulliPair):
        p, q = (1.0 - pair.p0, pair.p0), (1.0 - pair.p1, pair.p1)
    else:
        p, q = zip(*((a, b) for a, b in zip(pair.p0, pair.p1) if a > 0.0))
    if direction is Direction.REVERSE:
        p, q = q, p
    sp, sq = math.fsum(p), math.fsum(q)
    p, q = tuple(a / sp for a in p), tuple(b / sq for b in q)
    z = tuple(math.log1p((a - b) / b) if abs(a - b) < 0.5 * b else math.log(a / b)
              for a, b in zip(p, q))
    z_min, d_inf = min(z), max(z)
    atoms = _TiltAtoms(tuple(map(math.log, p)), p, q, z, max(d_inf, -z_min), z_min, d_inf,
                       math.log(math.fsum(b for b, x in zip(q, z) if x == d_inf)))
    _, kl, var, _ = _tilt(atoms, 1.0)
    sd = math.sqrt(var)
    dev = (abs(x - kl) / sd for x in z)  # the docstring's s, read only where sd > 0
    berry = 6.0 * math.fsum(a * s * s * s for a, s in zip(p, dev)) if sd else 0.0
    atoms = atoms._replace(kl=kl, var=var, berry=berry)
    return atoms._replace(log_affinity=min(_tilt(atoms, 0.5)[0], 0.0))


def _tilt(atoms: _TiltAtoms, lam: float) -> tuple[float, float, float, float]:
    """The tilted log-sum psi(lam) = log sum p^lam q^(1-lam), psi', psi'' and a size.

    Over one :func:`_tilt_atoms` record.  With z = log(p / q), psi'(lam)
    and psi''(lam) are the mean and the variance of z under the tilted law
    proportional to p^lam q^(1-lam), so psi is convex with psi(0) = psi(1)
    = 0 and D_lam = psi(lam) / (lam - 1).  Near either zero psi is an
    expansion about it, which keeps its relative accuracy where a
    log-sum-exp cancels to nothing: while lam < 1/2 and lam max|z| <= 1/2,
    psi = log1p(sum q expm1(lam z)) (the step is lam itself: lam - 1 would
    round away 1e-7 of lam = 1e-9), and while |lam - 1| max|z| <= 1/2,
    psi = log1p(sum p expm1((lam - 1) z)).  Elsewhere the sum is shifted
    by the z that dominates it (the largest for lam > 1, the smallest for
    lam < 1), so no term overflows and the top atoms keep their exact
    log-probabilities however large lam is; as lam -> inf, psi(lam) -
    lam D_inf tends to log Q(A).  The size is the magnitude psi was summed
    from: sum |q expm1(lam z)| or sum |p expm1((lam - 1) z)| in the
    expansions, and in the shifted sum a bound on its terms and on the
    errors z carries into them.  With fsum sums, psi is within about
    (K + 8) eps of |psi| + size, psi' of the tilted mean of |z|, and psi''
    of itself plus what errors of eps |z| in z - psi' make of it (the
    model :mod:`htbounds.bounds` assumes).  Over a Gaussian record, with
    no atoms, psi is the quadratic lam (lam - 1) var / 2, formed as
    lam ((lam - 1) var / 2) since lam (lam - 1) overflows past lam = 1.3e154,
    with psi' = (lam - 1/2) var, psi'' = var and size 0.  lam is a float > 0.
    """
    if not atoms.z:
        v = atoms.var
        return lam * ((lam - 1.0) * v / 2.0), (lam - 0.5) * v, v, 0.0
    z, z_abs, h = atoms.z, atoms.z_abs, lam - 1.0
    near_zero = lam < 0.5 and lam * z_abs <= 0.5
    if near_zero or abs(h) * z_abs <= 0.5:
        base, step = (atoms.q, lam) if near_zero else (atoms.p, h)
        terms = [b * math.expm1(step * x) for b, x in zip(base, z)]
        s = math.fsum(terms)
        psi, size, total = math.log1p(s), math.fsum(map(abs, terms)), 1.0 + s
        w = list(map(operator.add, terms, base))
    else:
        z_top = atoms.d_inf if h > 0.0 else atoms.z_min
        x = [lp + h * (v - z_top) for lp, v in zip(atoms.logp, z)]  # every term is <= 0
        x_max = max(x)
        w = [math.exp(v - x_max) for v in x]
        total = math.fsum(w)
        log_total = math.log(total)
        psi = h * z_top + x_max + log_total
        size = 2.0 * (abs(h) * z_abs - math.fsum(map(operator.mul, w, x)) / total) + log_total
    mean = math.fsum(map(operator.mul, w, z)) / total
    dz = [v - mean for v in z]
    return psi, mean, math.fsum(map(operator.mul, w, map(operator.mul, dz, dz))) / total, size


def kl_divergence(pair: DistributionPair, direction: Direction) -> float:
    """Kullback-Leibler divergence of the pair in the given direction (nats)."""
    return _tilt_atoms(pair, direction).kl


def renyi_divergence(pair: DistributionPair, lam: float, direction: Direction) -> float:
    """Renyi divergence D_lambda of the pair at a scalar order lam.

    D_lambda(P || Q) = psi(lambda) / (lambda - 1), with psi the tilted
    log-sum of :func:`_tilt`: log( sum p^lambda q^(1-lambda) ) for discrete
    pairs, and lambda (lambda - 1) delta^2 / (2 sigma^2) for Gaussians in
    either direction.  Requires a finite scalar lam > 0 with lam != 1 (the
    lam -> 1 limit is the KL divergence; call kl_divergence for it); an
    array or any other lam raises :class:`DomainError`.

    Where psi(lambda) overflows D_lambda is still finite: lambda d^2 / 2 for
    a Gaussian pair, and for a discrete one D_inf + L / (lambda - 1) with L
    in [log P(A), 0], A the atoms where p / q is largest.  There that term
    is below an ulp of D_inf (|L| < 745, and the overflow needs D_inf > 1),
    so D_lambda rounds to D_inf.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise DomainError("renyi_divergence requires finite lambda")
    if lam <= 0.0:
        raise DomainError("renyi_divergence requires lambda > 0")
    if lam == 1.0:
        raise DomainError("lambda = 1 is the KL limit; use kl_divergence")
    lam = float(lam)
    atoms = _tilt_atoms(pair, direction)
    psi = _tilt(atoms, lam)[0]
    if psi < math.inf:
        return psi / (lam - 1.0)
    return atoms.d_inf if atoms.z else 0.5 * lam * atoms.var


def _parse_floats(text: str, base: int, label: str) -> list[float]:
    vals: list[float] = []
    pos = 0
    for tok in text.split(","):
        try:
            vals.append(float(tok))
        except ValueError:
            raise PairSpecError(f"bad number {tok!r} in {label}", base + pos) from None
        pos += len(tok) + 1
    return vals


def parse_pair(spec: str) -> DistributionPair:
    """Parse a textual pair spec.

    Grammar::

        bernoulli:P0,P1
        gaussian:MU,DELTA[,SIGMA]
        discrete:P,P,...|Q,Q,...

    Parse failures raise :class:`PairSpecError`, a :class:`DomainError`
    whose ``offset`` is the character position of the offending token;
    semantically invalid parameters (e.g. p0 = p1) raise a plain
    :class:`DomainError` from the pair constructor.
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise PairSpecError("expected 'family:parameters'", len(spec))
    base = len(head) + 1
    if head == "bernoulli":
        vals = _parse_floats(body, base, "bernoulli parameters")
        if len(vals) != 2:
            raise PairSpecError("bernoulli takes exactly two parameters", base)
        return BernoulliPair(vals[0], vals[1])
    if head == "gaussian":
        vals = _parse_floats(body, base, "gaussian parameters")
        if len(vals) not in (2, 3):
            raise PairSpecError("gaussian takes two or three parameters", base)
        return GaussianPair(*vals)
    if head == "discrete":
        first, bar, second = body.partition("|")
        if not bar:
            raise PairSpecError("discrete needs two '|'-separated vectors", base + len(body))
        p0 = _parse_floats(first, base, "first discrete vector")
        p1 = _parse_floats(second, base + len(first) + 1, "second discrete vector")
        return FiniteDiscretePair(tuple(p0), tuple(p1))
    raise PairSpecError(f"unknown family {head!r}", 0)
