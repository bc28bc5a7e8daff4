"""Distribution pairs and their divergence functionals.

A *pair* is the simple-vs-simple testing problem (P0, P1) on a common
sample space: Bernoulli with success probabilities (p0, p1), Gaussian
with means mu and mu + delta at shared standard deviation sigma, or a
finite discrete pair given by two probability vectors over the same
support.  Everything downstream (bounds, oracles, experiments) consumes
pairs only through the functionals defined here.

Conventions: Direction.FORWARD means the functional's first argument is
the null P0 (so kl_divergence(pair, FORWARD) = D(P0 || P1)), REVERSE
swaps the roles.  Log-likelihood ratio moments are always those of
log(p0/p1) under P0, the orientation the Berry-Esseen baseline needs.
Gaussian formulas are exact for any sigma because the testing problem
(mu, delta, sigma) rescales to (0, delta/sigma, 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

from .numerics import DomainError, _float_or_array

__all__ = [
    "BernoulliPair",
    "Direction",
    "DistributionPair",
    "FiniteDiscretePair",
    "GaussianPair",
    "LLRMoments",
    "PairSpecError",
    "UnsupportedFamilyError",
    "hellinger_squared",
    "kl_divergence",
    "llr_moments",
    "parse_pair",
    "renyi_divergence",
]


class UnsupportedFamilyError(ValueError):
    """The operation is not defined for this distribution family."""


class PairSpecError(ValueError):
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
    """N(mu, sigma^2) versus N(mu + delta, sigma^2), with delta != 0."""

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


@dataclass(frozen=True)
class LLRMoments:
    """Moments under P0 of the log-likelihood ratio log(p0/p1).

    ``berry_constant`` is 6 * third_abs_central / variance^{3/2}, the
    constant entering the Berry-Esseen correction; it is 0 when the
    variance vanishes (identical pair).
    """

    mean: float
    variance: float
    third_abs_central: float
    berry_constant: float


def _atoms(pair: DistributionPair, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Probability atoms (first, second argument) over the common support."""
    if isinstance(pair, BernoulliPair):
        a0 = np.array([1.0 - pair.p0, pair.p0])
        a1 = np.array([1.0 - pair.p1, pair.p1])
    elif isinstance(pair, FiniteDiscretePair):
        a0 = np.asarray(pair.p0, dtype=float)
        a1 = np.asarray(pair.p1, dtype=float)
        mask = a0 > 0.0
        a0, a1 = a0[mask], a1[mask]
    else:
        raise UnsupportedFamilyError(f"no discrete atoms for {type(pair).__name__}")
    if direction is Direction.REVERSE:
        a0, a1 = a1, a0
    return a0, a1


@functools.lru_cache(maxsize=256)
def _log_atoms(pair: DistributionPair, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Log-probability atoms (first, second argument) over the common support.

    Cached per (pair, direction), since pairs are frozen and hashable; the
    arrays are read-only so no caller can change what the next one gets.
    """
    a0, a1 = _atoms(pair, direction)
    logp, logq = np.log(a0), np.log(a1)
    logp.flags.writeable = False
    logq.flags.writeable = False
    return logp, logq


def _gaussian_d2(pair: GaussianPair) -> float:
    # Squared standardized separation (delta / sigma)^2.
    return (pair.delta / pair.sigma) ** 2


def kl_divergence(pair: DistributionPair, direction: Direction) -> float:
    """Kullback-Leibler divergence of the pair in the given direction (nats)."""
    if isinstance(pair, GaussianPair):
        return _gaussian_d2(pair) / 2.0
    logp, logq = _log_atoms(pair, direction)
    p = np.exp(logp)
    return float(np.sum(p * (logp - logq)))


def _lambda_error(arr: np.ndarray) -> DomainError:
    # The first failing check, in the order finite, > 0, != 1.
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        return DomainError("renyi_divergence requires finite lambda")
    if np.any(arr <= 0.0):
        return DomainError("renyi_divergence requires lambda > 0")
    return DomainError("lambda = 1 is the KL limit; use kl_divergence")


def renyi_divergence(pair: DistributionPair, lam, direction: Direction):
    """Renyi divergence D_lambda of the pair; lam may be a scalar or array.

    D_lambda(P || Q) = log( sum p^lambda q^(1-lambda) ) / (lambda - 1)
    for discrete pairs; for Gaussians it is lambda * delta^2 / (2 sigma^2)
    in either direction.  Requires lam > 0 and lam != 1 (the lam -> 1
    limit is the KL divergence; call kl_divergence for it).
    """
    lam = _float_or_array(lam)
    if isinstance(lam, float):
        if not (math.isfinite(lam) and lam > 0.0 and lam != 1.0):
            raise _lambda_error(np.asarray(lam))
        if isinstance(pair, GaussianPair):
            return lam * (_gaussian_d2(pair) / 2.0)
        logp, logq = _log_atoms(pair, direction)
        return float(np.logaddexp.reduce(lam * logp + (1.0 - lam) * logq) / (lam - 1.0))
    if not (lam.size and np.all((lam > 0.0) & (lam < math.inf) & (lam != 1.0))):
        raise _lambda_error(lam)
    if isinstance(pair, GaussianPair):
        return lam * (_gaussian_d2(pair) / 2.0)
    logp, logq = _log_atoms(pair, direction)
    lam_col = lam.reshape(lam.shape + (1,))
    return np.logaddexp.reduce(lam_col * logp + (1.0 - lam_col) * logq, axis=-1) / (lam - 1.0)


class _TiltAtoms(NamedTuple):
    logp: np.ndarray  # log p
    p: np.ndarray  # the first argument's atoms, renormalized to sum 1
    z: np.ndarray  # log(p / q), q the second argument's atoms, renormalized
    z_abs: float  # max |z|
    d_inf: float  # D_inf = max z
    log_q_top: float  # log Q(A), A the atoms where z = D_inf


@functools.lru_cache(maxsize=256)
def _tilt_atoms(pair: DistributionPair, direction: Direction) -> _TiltAtoms:
    """What :func:`_tilt` needs of the pair's atoms, cached like them.

    z is log1p((p - q) / q) where p / q lies within (1/2, 3/2), so it keeps
    its relative accuracy as p -> q, where log p - log q cancels.
    """
    p, q = _atoms(pair, direction)
    p, q = p / p.sum(), q / q.sum()
    z = np.log(p / q)
    near = np.abs(p - q) < 0.5 * q
    z[near] = np.log1p((p[near] - q[near]) / q[near])
    logp = np.log(p)
    for arr in (logp, p, z):
        arr.flags.writeable = False
    d_inf = z.max()
    log_q_top = np.log(q[z == d_inf].sum())
    return _TiltAtoms(logp, p, z, float(np.max(np.abs(z))), float(d_inf), float(log_q_top))


def _tilt(pair: DistributionPair, lam: float, direction: Direction) -> tuple[float, float, float]:
    """The tilted log-sum psi(lam) = log sum p^lam q^(1-lam) and its two derivatives.

    With z = log(p / q), psi'(lam) and psi''(lam) are the mean and the
    variance of z under the tilted law proportional to p^lam q^(1-lam), so
    psi is convex with psi(1) = 0 and D_lam = psi(lam) / (lam - 1).  While
    |lam - 1| max|z| <= 1/2, psi is log1p(sum p expm1((lam - 1) z)) over
    atoms renormalized to sum 1, which keeps its relative accuracy as
    lam -> 1 where a log-sum-exp cancels to nothing.  Further out the sum
    is shifted by the z that dominates it (the largest for lam > 1, the
    smallest for lam < 1), so no term overflows and the top atoms keep
    their exact log-probabilities however large lam is.  As lam -> inf,
    psi(lam) - lam D_inf tends to log Q(A) (see :func:`_tilt_atoms`).
    Discrete pairs only; lam is a float > 0.
    """
    logp, p, z, z_abs, _, _ = _tilt_atoms(pair, direction)
    h = lam - 1.0
    if abs(h) * z_abs <= 0.5:
        w = p * np.expm1(h * z)
        s = float(w.sum())
        psi = math.log1p(s)
        w += p
        total = 1.0 + s
    else:
        z_top = float(z.max() if h > 0.0 else z.min())
        x = logp + h * (z - z_top)
        x_max = float(x.max())
        w = np.exp(x - x_max)
        total = float(w.sum())
        psi = h * z_top + x_max + math.log(total)
    mean = float(w @ z) / total
    dz = z - mean
    return psi, mean, float(w @ (dz * dz)) / total


def hellinger_squared(pair: DistributionPair) -> float:
    """Squared Hellinger distance H^2 = 1 - sum sqrt(p0 p1) in [0, 1]."""
    if isinstance(pair, GaussianPair):
        return float(-np.expm1(-_gaussian_d2(pair) / 8.0))
    logp, logq = _log_atoms(pair, Direction.FORWARD)
    log_affinity = np.logaddexp.reduce(0.5 * (logp + logq))
    return float(-np.expm1(min(log_affinity, 0.0)))


def llr_moments(pair: DistributionPair) -> LLRMoments:
    """Mean, variance, and absolute third central moment of log(p0/p1) under P0."""
    if isinstance(pair, GaussianPair):
        d = abs(pair.delta) / pair.sigma
        variance = d * d
        third = d**3 * math.sqrt(8.0 / math.pi)
        return LLRMoments(
            mean=d * d / 2.0,
            variance=variance,
            third_abs_central=third,
            berry_constant=6.0 * math.sqrt(8.0 / math.pi),
        )
    logp, logq = _log_atoms(pair, Direction.FORWARD)
    w = np.exp(logp)
    z = logp - logq
    mean = float(np.sum(w * z))
    variance = float(np.sum(w * (z - mean) ** 2))
    third = float(np.sum(w * np.abs(z - mean) ** 3))
    berry = 6.0 * third / variance**1.5 if variance > 0.0 else 0.0
    return LLRMoments(mean=mean, variance=variance, third_abs_central=third, berry_constant=berry)


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

    Parse failures raise :class:`PairSpecError` whose ``offset`` is the
    character position of the offending token; semantically invalid
    parameters (e.g. p0 = p1) raise :class:`DomainError` from the pair
    constructor.
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
