"""Nonconvex l_q-analysis recovery with frames.

Signals that are sparse in the analysis coefficients of a general frame are
recovered from few linear measurements by iteratively reweighted solvers;
the package also ships estimators and calculators for every checkable
quantity of the underlying theory (restricted q-isometry constants,
recovery conditions, Gaussian measurement bounds) plus a joint-recovery
path for signals mixing several dictionaries.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports their union.
"""

from . import errors, experiments, frames, rip, separation, solvers
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .frames import *  # noqa: F403
from .rip import *  # noqa: F403
from .separation import *  # noqa: F403
from .solvers import *  # noqa: F403

__version__ = "0.1.0"

# Kept for callers that record it; the package has no JIT path.
NUMBA_ENABLED = False

__all__ = ["NUMBA_ENABLED", "__version__"] + [
    name for module in (errors, frames, rip, solvers, separation, experiments) for name in module.__all__
]
