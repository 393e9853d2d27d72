"""Frame-theoretic linear algebra: bounds, duals, coherence, sparsity utilities.

All operations are pure functions of their inputs plus explicit seeds, so
they are safe to call concurrently.  ``_one_blas_thread`` is the package's
one thread rule for numpy's OpenBLAS.
"""

import contextlib
import ctypes
import importlib
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    GenerationFailedError,
    IllConditionedError,
    InvalidDimensionsError,
    InvalidParametersError,
    NotAFrameError,
)

__all__ = [
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
]

# Gram matrices with eigenvalue spread above this are refused by canonical_dual.
DEFAULT_CONDITION_CAP = 1e12

# Singular values at or below this fraction of the largest count as zero.
_RANK_RTOL = 1e-12

# Cosupport draws cosparse_signal makes before it gives up.
_MAX_RETRIES = 50


def _check_real(name: str, value, interval: str, error=InvalidParametersError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy int or float, never a bool nor an int past the float
    range, in ``interval``, written as the message prints it: ``"(0, 1]"``, ``"[0, inf)"``, or ``"[0, inf]"`` where
    inf is allowed."""
    low, high = interval[1:-1].split(", ")
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    if real and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise error(f"{name} must fit a float, got {_shown(value)}")
    if real and (value >= float(low) if interval[0] == "[" else value > float(low)) and (
            value <= float(high) if interval[-1] == "]" else value < float(high)):
        return  # NaN fails every comparison
    half_line = f"be {'>=' if interval[0] == '[' else '>'} {low}" + ("" if interval[-1] == "]" else " and finite")
    raise error(f"{name} must {half_line if high == 'inf' else 'lie in ' + interval}, got {value!r}")


def _shown(x) -> str:
    """``str(x)``, but an int past the float range as ``~10**k``: Python refuses the digits of one past 4300."""
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        return f"{'-' if x < 0 else ''}~10**{math.floor(math.log10(abs(x)))}"
    return str(x)


def _check_q(q: float, error=InvalidParametersError, name: str = "q") -> None:
    """Raise ``error`` unless the exponent q is a number in (0, 1]."""
    _check_real(name, q, "(0, 1]", error)


def _check_int(name: str, value, low=-math.inf, high=math.inf, error=InvalidParametersError) -> None:
    """Raise ``error`` unless ``value`` is an integer in [low, high]; a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} is not an integer: {value!r}")
    if not low <= value <= high:
        raise error(f"{name} must lie in [{_shown(low)}, {_shown(high)}], got {_shown(value)}")


def _require_finite(**arrays) -> None:
    """Raise InvalidParametersError naming the first array with a NaN or inf."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise InvalidParametersError(f"{name} holds non-finite entries (NaN or inf)")


def _matrix(name: str, x) -> np.ndarray:
    """``x`` as a finite 2-D float array with no zero dimension; errors name it ``name``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidDimensionsError(f"{name} must be a 2-D matrix, got {x.ndim} dimension(s)")
    if 0 in x.shape:
        raise InvalidDimensionsError(f"{name} has shape {x.shape}; every dimension must be positive")
    _require_finite(**{name: x})
    return x


def _svd(M: np.ndarray):
    """Full SVD ``(U, s, Vt, rank)`` of M: rank counts s > s[0] * ``_RANK_RTOL``
    (0 without rows), and ``Vt[rank:]`` is an orthonormal basis of ker M."""
    U, s, Vt = np.linalg.svd(M)
    return U, s, Vt, int(np.sum(s > s.max(initial=0.0) * _RANK_RTOL))


def _openblas_threads():
    """``(set, get)`` of numpy's OpenBLAS thread count, or None on any other BLAS;
    looked up through numpy's extension module, which links the library."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        setter, getter = (getattr(lib, name.format(verb), None) for verb in ("set", "get"))
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype, getter.restype = [ctypes.c_int], None, ctypes.c_int
            return setter, getter
    return None


_OPENBLAS = _openblas_threads()
_blas_lock = threading.Lock()
_blas_depth = _blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, or each call of a function it decorates, at one OpenBLAS thread.

    The work here is many small BLAS calls, between which OpenBLAS worker
    threads spin idle: one thread halves CPU time at the same wall time.
    The first scope to open saves the caller's count and the last to close
    restores it, also on an exception; the lock and the depth count keep
    that true for nested scopes and for scopes in concurrent Python threads.
    Without OpenBLAS (``_OPENBLAS`` is None) it does nothing.
    """
    global _blas_depth, _blas_saved
    if _OPENBLAS is None:
        yield
        return
    setter, getter = _OPENBLAS
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = getter()
            setter(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                setter(_blas_saved)


def _ambient_dim(mats) -> int:
    """The row count shared by a nonempty list of dictionary matrices."""
    if not mats:
        raise InvalidParametersError("need at least one dictionary")
    if any(m.shape[0] != mats[0].shape[0] for m in mats):
        raise InvalidDimensionsError("dictionaries must share the ambient dimension")
    return mats[0].shape[0]


def frame_bounds(matrix: np.ndarray) -> tuple[float, float]:
    """Exact frame bounds of the columns of an n-by-d matrix.

    The bounds are the extreme eigenvalues of ``D @ D.T`` (an n-by-n
    symmetric eigenproblem, never the larger d-by-d Gram matrix).

    Raises
    ------
    NotAFrameError
        If the rows fail to span R^n (rank-deficient matrix).
    InvalidDimensionsError
        If the matrix is not 2-D or has more rows than columns.
    InvalidParametersError
        If the matrix holds NaN or inf.
    """
    matrix = _matrix("matrix", matrix)
    n, d = matrix.shape
    if n > d:
        raise InvalidDimensionsError(f"frame needs at least as many atoms as dimensions, got {n}x{d}")
    evals = np.linalg.eigvalsh(matrix @ matrix.T)
    lo, hi = float(evals[0]), float(evals[-1])
    if hi <= 0.0 or lo <= hi * _RANK_RTOL:
        raise NotAFrameError("matrix rows do not span the ambient space")
    return lo, hi


@dataclass(frozen=True)
class Frame:
    """A dictionary whose columns form a frame, with cached bounds.

    Attributes
    ----------
    matrix : (n, d) ndarray
        Columns are the frame atoms.
    lower_bound, upper_bound : float
        Tight two-sided energy bounds: lower * |f|^2 <= |D.T f|^2 <= upper * |f|^2.
    """

    matrix: np.ndarray
    lower_bound: float
    upper_bound: float

    @classmethod
    def from_matrix(cls, matrix) -> "Frame":
        """Validate a matrix and compute its bounds."""
        matrix = np.asarray(matrix, dtype=float)
        lo, hi = frame_bounds(matrix)
        return cls(matrix=matrix, lower_bound=lo, upper_bound=hi)

    @property
    def condition(self) -> float:
        """Ratio of upper to lower frame bound (>= 1)."""
        return self.upper_bound / self.lower_bound

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]


def canonical_dual(frame: Frame) -> Frame:
    """Canonical dual of a frame: (D D.T)^{-1} D, with bounds (1/upper, 1/lower).

    Raises IllConditionedError unless upper <= ``DEFAULT_CONDITION_CAP`` *
    lower, so a zero or NaN lower bound is refused too.  ``Frame.from_matrix``
    never builds such a frame, because ``frame_bounds`` refuses a spread of
    1/``_RANK_RTOL`` = 1e12 or more; the cap guards frames built from given bounds.
    """
    lower, upper = frame.lower_bound, frame.upper_bound
    if not upper <= DEFAULT_CONDITION_CAP * lower:
        raise IllConditionedError(f"Gram bounds ({lower:.3e}, {upper:.3e}) spread beyond {DEFAULT_CONDITION_CAP:.3e}")
    gram = frame.matrix @ frame.matrix.T
    dual = np.linalg.solve(gram, frame.matrix)
    return Frame(matrix=dual, lower_bound=1.0 / upper, upper_bound=1.0 / lower)


def random_tight_frame(n: int, d: int, seed) -> Frame:
    """Random tight frame with bound 1 (D D.T = I), deterministic per seed.

    Draws an n-by-d standard Gaussian matrix and orthonormalizes its rows.
    """
    _check_int("n", n, 1)
    _check_int("d", d, 1)
    if n > d:
        raise InvalidDimensionsError(f"tight frame requires n <= d, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, n))
    q, r = np.linalg.qr(g)
    # Fix column signs so the construction is a deterministic function of g.
    q = q * np.sign(np.diag(r))
    return Frame(matrix=q.T, lower_bound=1.0, upper_bound=1.0)


def _atoms(obj) -> np.ndarray:
    """The atom matrix of a Frame, or of a raw array, checked by ``_matrix``."""
    return _matrix("dictionary", obj.matrix if isinstance(obj, Frame) else obj)


def mutual_coherence(dicts) -> float:
    """Largest |<d_ki, d_lj>| over atoms of *distinct* dictionaries.

    Accepts two or more frames (or raw matrices) sharing an ambient dimension.
    """
    mats = [_atoms(item) for item in dicts]
    if len(mats) < 2:
        raise InvalidDimensionsError("mutual coherence needs at least two dictionaries")
    _ambient_dim(mats)
    best = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            best = max(best, float(np.max(np.abs(mats[i].T @ mats[j]))))
    return best


@dataclass(frozen=True)
class SparseApproximation:
    """Best s-term approximation of a coefficient vector.

    ``support`` holds the kept indices in ascending order, ``values`` the
    corresponding entries, and ``residual_q_norm`` the l_q quasinorm of the
    discarded entries.
    """

    support: np.ndarray
    values: np.ndarray
    residual_q_norm: float

    def dense(self, d: int) -> np.ndarray:
        """The thresholded vector as a length-d array."""
        out = np.zeros(d)
        out[self.support] = self.values
        return out


def hard_threshold(x: np.ndarray, s: int, q: float = 1.0) -> SparseApproximation:
    """Keep the s largest-magnitude entries of x; ties keep the lowest index.

    The residual is measured in the l_q quasinorm for the requested q,
    which must lie in (0, 1].
    """
    _check_q(q)
    _check_int("sparsity", s)
    x = np.asarray(x, dtype=float)
    d = x.size
    _check_int("sparsity", s, 0, d, error=InvalidDimensionsError)
    order = np.argsort(-np.abs(x), kind="stable")
    support = np.sort(order[:s])
    dropped = x[order[s:]]
    residual = float(np.sum(np.abs(dropped) ** q)) ** (1.0 / q) if dropped.size else 0.0
    return SparseApproximation(support=support, values=x[support], residual_q_norm=residual)


def cosparse_signal(frame: Frame, s: int, seed):
    """Unit-norm signal whose analysis coefficients are exactly s-sparse.

    Draws a random cosupport of size d - s, projects a Gaussian vector onto
    the null space of the corresponding analysis rows, and normalizes.
    Returns ``(f, coeffs)`` with ``coeffs = D.T f``.  Retries with a fresh
    cosupport when the null space is trivial and raises
    GenerationFailedError after ``_MAX_RETRIES`` draws.

    Feasibility: for a frame in general position (every n columns linearly
    independent) d - s analysis rows annihilate a nonzero f only when
    d - s < n, so exact s-sparse coefficients need ``s > d - n``; below
    that every draw fails.  The rule is not enforced up front, because
    frames not in general position (duplicated atoms, for instance) can
    still succeed with ``s <= d - n``.
    """
    d, n = frame.num_atoms, frame.ambient_dim
    _check_int("sparsity", s)
    _check_int("sparsity", s, 1, n, error=InvalidDimensionsError)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        cosupport = rng.choice(d, size=d - s, replace=False)
        _, _, vt, rank = _svd(frame.matrix[:, cosupport].T)  # ker of the rows to annihilate
        if rank >= n:
            continue
        g = rng.standard_normal(n)
        f = vt[rank:].T @ (vt[rank:] @ g)
        norm = np.linalg.norm(f)
        if norm <= 1e-12:
            continue
        f /= norm
        return f, frame.matrix.T @ f
    raise GenerationFailedError(
        f"no cosupport of size {d - s} with nontrivial null space after {_MAX_RETRIES} tries "
        f"(n={n}, d={d}, s={s}; a frame in general position needs s > d - n = {d - n})"
    )


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from headerless ASCII CSV by ``np.loadtxt``, skipping blank lines.

    ``#`` starts no comment.  An empty file, a ragged row, a non-number (``1_000`` too) or NaN or inf
    raises InvalidDimensionsError naming the path, and for a row the file line it is on."""
    with open(path, "r", encoding="ascii") as fh:
        numbered = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not numbered:
        raise InvalidDimensionsError(f"{path}: empty matrix file")
    linenos, lines = zip(*numbered)
    try:
        matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # name the first line that numpy refuses on its own or that is not as wide as the first line
        width = lines[0].count(",") + 1
        for lineno, line in numbered:
            try:
                ok = np.loadtxt([line], delimiter=",", comments=None).size == width
            except ValueError:
                ok = False
            if not ok:
                message = f"expected a row of {width} numbers, got {line.strip()!r}"
                raise InvalidDimensionsError(f"{path}:{lineno}: {message}") from exc
        raise InvalidDimensionsError(f"{path}: not a numeric matrix: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise InvalidDimensionsError(f"{path}:{linenos[bad[0]]}: non-finite entry (nan or inf)")
    return matrix


def save_matrix(path, matrix) -> None:
    """Write a dense matrix as headerless CSV, each entry in its shortest round-trip form."""
    with open(path, "w", encoding="ascii") as fh:
        np.savetxt(fh, np.atleast_2d(np.asarray(matrix, dtype=float)), fmt="%s", delimiter=",")
