"""Finite-sample hypothesis-testing bounds via Renyi divergences.

Library layout:

* :mod:`htbounds.numerics`       log-domain primitives and the root solver
* :mod:`htbounds.distributions`  distribution pairs and their divergences
* :mod:`htbounds.bounds`         converse/achievability/sample-size bounds
* :mod:`htbounds.oracle`         exact Neyman-Pearson optima
* :mod:`htbounds.experiments`    sweep grids, CSV and SVG emitters
"""

from .bounds import (
    BoundKind,
    BoundResult,
    Constant,
    ErrorRegime,
    Exponential,
    Linear,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    phase_transition_converse,
    renyi_achievability_at_threshold,
    renyi_converse,
    sample_complexity_pensia,
    sample_complexity_renyi,
    smoothing_out_bound,
    threshold_for_rate,
)
from .distributions import (
    BernoulliPair,
    Direction,
    DistributionPair,
    FiniteDiscretePair,
    GaussianPair,
    LLRMoments,
    PairSpecError,
    UnsupportedFamilyError,
    hellinger_squared,
    kl_divergence,
    llr_moments,
    parse_pair,
    renyi_divergence,
)
from .experiments import (
    CANONICAL_BOUNDS,
    ConfigError,
    ExperimentGrid,
    GridCell,
    GridRow,
    GridTable,
    emit_csv,
    emit_svg,
    run_grid,
)
from .numerics import (
    DomainError,
    log_diff_exp,
    log_q,
    q_function,
    q_inverse,
    q_inverse_log,
)
from .oracle import (
    NPResult,
    SizeError,
    np_exact_bernoulli,
    np_exact_discrete,
    np_exact_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliPair",
    "BoundKind",
    "BoundResult",
    "CANONICAL_BOUNDS",
    "ConfigError",
    "Constant",
    "Direction",
    "DistributionPair",
    "DomainError",
    "ErrorRegime",
    "ExperimentGrid",
    "Exponential",
    "FiniteDiscretePair",
    "GaussianPair",
    "GridCell",
    "GridRow",
    "GridTable",
    "LLRMoments",
    "Linear",
    "NPResult",
    "PairSpecError",
    "SizeError",
    "UnsupportedFamilyError",
    "berry_esseen_bound",
    "emit_csv",
    "emit_svg",
    "eps_at",
    "fano_bound",
    "hellinger_bound",
    "hellinger_squared",
    "kl_divergence",
    "llr_moments",
    "log_diff_exp",
    "log_q",
    "np_exact_bernoulli",
    "np_exact_discrete",
    "np_exact_gaussian",
    "parse_pair",
    "phase_transition_achievability",
    "phase_transition_converse",
    "q_function",
    "q_inverse",
    "q_inverse_log",
    "renyi_achievability_at_threshold",
    "renyi_converse",
    "renyi_divergence",
    "run_grid",
    "sample_complexity_pensia",
    "sample_complexity_renyi",
    "smoothing_out_bound",
    "threshold_for_rate",
    "__version__",
]
