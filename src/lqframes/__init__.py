"""Nonconvex l_q-analysis recovery with frames.

Signals that are sparse in the analysis coefficients of a general frame are
recovered from few linear measurements by iteratively reweighted solvers;
the package also ships estimators and calculators for every checkable
quantity of the underlying theory (restricted q-isometry constants,
recovery conditions, Gaussian measurement bounds) plus a joint-recovery
path for signals mixing several dictionaries.
"""

from .errors import (
    ConditionUnevaluableError,
    DegenerateDictionaryError,
    EmptyKernelError,
    GenerationFailedError,
    IllConditionedError,
    InfeasibleOrDegenerateError,
    InvalidDimensionsError,
    InvalidParametersError,
    InvalidSpecError,
    LqframesError,
    NotAFrameError,
)
from .experiments import (
    CellResult,
    ExperimentSpec,
    cells_from_csv,
    cells_from_json,
    cells_to_csv,
    cells_to_json,
    run_bounds_table,
    run_figure1,
    run_phase_transition,
    run_separation_sweep,
    trial_seed,
)
from .frames import (
    Frame,
    SparseApproximation,
    canonical_dual,
    cosparse_signal,
    frame_bounds,
    hard_threshold,
    load_matrix,
    mutual_coherence,
    random_tight_frame,
    save_matrix,
)
from .rip import (
    GaussianTail,
    RecoveryConditionVerdict,
    RipReport,
    check_recovery_condition,
    error_constants,
    estimate_nsp_theta,
    estimate_rip,
    gaussian_failure_probability,
    gaussian_moment,
    measurement_bound,
    tail_constant,
)
from .separation import (
    SeparationProblem,
    SeparationVerdict,
    build_stacked,
    check_separation_conditions,
    separation_measurement_bound,
    solve_split_analysis,
    split_nsp_condition,
    split_nsp_constant,
)
from .solvers import LqProblem, SolverConfig, SolverResult, irl1_analysis, irls_analysis, objective

__version__ = "0.1.0"

# Kept for callers that record it; the package has no JIT path.
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED",
    "__version__",
    # errors
    "LqframesError",
    "NotAFrameError",
    "IllConditionedError",
    "InvalidDimensionsError",
    "GenerationFailedError",
    "DegenerateDictionaryError",
    "ConditionUnevaluableError",
    "InvalidParametersError",
    "InfeasibleOrDegenerateError",
    "EmptyKernelError",
    "InvalidSpecError",
    # frames
    "Frame",
    "SparseApproximation",
    "frame_bounds",
    "canonical_dual",
    "random_tight_frame",
    "mutual_coherence",
    "hard_threshold",
    "cosparse_signal",
    "load_matrix",
    "save_matrix",
    # rip
    "RipReport",
    "RecoveryConditionVerdict",
    "GaussianTail",
    "gaussian_moment",
    "tail_constant",
    "estimate_rip",
    "check_recovery_condition",
    "error_constants",
    "gaussian_failure_probability",
    "measurement_bound",
    "estimate_nsp_theta",
    # solvers
    "LqProblem",
    "SolverConfig",
    "SolverResult",
    "irls_analysis",
    "irl1_analysis",
    "objective",
    # separation
    "SeparationProblem",
    "SeparationVerdict",
    "build_stacked",
    "solve_split_analysis",
    "check_separation_conditions",
    "separation_measurement_bound",
    "split_nsp_constant",
    "split_nsp_condition",
    # experiments
    "ExperimentSpec",
    "CellResult",
    "trial_seed",
    "run_figure1",
    "run_phase_transition",
    "run_bounds_table",
    "run_separation_sweep",
    "cells_to_csv",
    "cells_from_csv",
    "cells_to_json",
    "cells_from_json",
]
