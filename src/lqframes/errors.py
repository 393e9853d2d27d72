"""Exception types raised by lqframes."""

__all__ = [
    "LqframesError", "NotAFrameError", "IllConditionedError", "InvalidDimensionsError",
    "GenerationFailedError", "DegenerateDictionaryError", "ConditionUnevaluableError",
    "InvalidParametersError", "InfeasibleOrDegenerateError", "EmptyKernelError", "InvalidSpecError",
]


class LqframesError(Exception):
    """Base class for all lqframes errors."""


class NotAFrameError(LqframesError):
    """Matrix rows do not span the ambient space (rank deficient)."""


class IllConditionedError(LqframesError):
    """Gram matrix too ill-conditioned to invert reliably."""


class InvalidDimensionsError(LqframesError):
    """Incompatible or invalid matrix/vector dimensions."""


class GenerationFailedError(LqframesError):
    """Random signal generation exhausted its retry budget."""


class DegenerateDictionaryError(LqframesError):
    """Every sampled sparse combination of dictionary columns was zero."""


class ConditionUnevaluableError(LqframesError):
    """Recovery-condition quantities are undefined for these inputs."""


class InvalidParametersError(LqframesError):
    """Scalar parameters outside their admissible range."""


class InfeasibleOrDegenerateError(LqframesError):
    """Measurement matrix is row-rank deficient; constraint set may be empty."""


class EmptyKernelError(LqframesError):
    """Measurement matrix has a trivial null space."""


class InvalidSpecError(LqframesError):
    """Experiment specification is malformed."""
