"""Exception types raised by lqframes."""

__all__ = [
    "LqframesError", "NotAFrameError", "IllConditionedError", "GenerationFailedError",
    "DegenerateDictionaryError", "ConditionUnevaluableError", "InvalidParametersError",
    "InfeasibleOrDegenerateError", "EmptyKernelError",
]


class LqframesError(Exception):
    """Base class for all lqframes errors."""


class NotAFrameError(LqframesError):
    """Matrix rows do not span the ambient space (rank deficient)."""


class IllConditionedError(LqframesError):
    """Gram matrix too ill-conditioned to invert reliably."""


class GenerationFailedError(LqframesError):
    """Random signal generation exhausted its retry budget."""


class DegenerateDictionaryError(LqframesError):
    """Every sampled sparse combination of dictionary columns was zero."""


class ConditionUnevaluableError(LqframesError):
    """Recovery-condition quantities are undefined for these inputs."""


class InvalidParametersError(LqframesError):
    """Input refused before any work: a value of the wrong type, a number outside its range,
    an array of the wrong shape, or a spec or matrix file that breaks its schema."""


class InfeasibleOrDegenerateError(LqframesError):
    """Measurement matrix is row-rank deficient; constraint set may be empty."""


class EmptyKernelError(LqframesError):
    """Measurement matrix has a trivial null space."""
