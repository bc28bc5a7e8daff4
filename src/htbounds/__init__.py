"""Finite-sample hypothesis-testing bounds via Renyi divergences.

Library layout:

* :mod:`htbounds.numerics`       log-domain primitives and the root solver
* :mod:`htbounds.distributions`  distribution pairs and their divergences
* :mod:`htbounds.bounds`         converse/achievability/sample-size bounds
* :mod:`htbounds.oracle`         exact Neyman-Pearson optima
* :mod:`htbounds.experiments`    sweep grids, CSV and SVG emitters

The package re-exports each module's ``__all__``, which is where every
public name is declared.
"""

from . import bounds, distributions, experiments, numerics, oracle
from .bounds import *  # noqa: F403
from .distributions import *  # noqa: F403
from .experiments import *  # noqa: F403
from .numerics import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *distributions.__all__, *experiments.__all__, *numerics.__all__,
           *oracle.__all__, "__version__"]
