"""Exception types raised by lqframes."""

__all__ = [
    "LqframesError", "InvalidParametersError", "IllConditionedError", "GenerationFailedError",
    "DegenerateDictionaryError", "ConditionUnevaluableError",
]


class LqframesError(Exception):
    """Base class for all lqframes errors."""


class InvalidParametersError(LqframesError):
    """Input refused before any work: a value of the wrong type, a number outside its range,
    an array of the wrong shape, a matrix of a rank the problem cannot use, or a spec or
    matrix file that breaks its schema."""


class IllConditionedError(LqframesError):
    """A weighted Gram matrix is not numerically positive definite during a solve."""


class GenerationFailedError(LqframesError):
    """Random signal generation exhausted its retry budget."""


class DegenerateDictionaryError(LqframesError):
    """Every sampled sparse combination of dictionary columns was zero."""


class ConditionUnevaluableError(LqframesError):
    """Recovery-condition quantities are undefined for these inputs."""
