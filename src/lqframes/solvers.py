"""Iteratively reweighted solvers for constrained l_q-analysis minimization.

Both solvers attack

    min |D^T f|_q^q   subject to   |A f - y|_r <= eps

by solving a sequence of convex surrogates: weighted least squares (IRLS)
or weighted l1 (IRL1), with weights refreshed from the current iterate and
a smoothing level that decays geometrically to a floor.  One driver,
``_reweight``, owns that outer loop, the traces and the stopping rule; a
path supplies only its step ``step(coeffs, sigma) -> (f_new, D^T f_new,
inner_ok)``, and the objective trace is read from the returned D^T f_new.
IRLS at eps = 0 steps over f = f0 + N z, with f0 the least-norm solution
of A f = y and N an orthonormal basis of ker A, so every iterate is
feasible and a step is one (n - m) x (n - m) SPD solve.  An IRL1 step is
one ADMM run on u = D^T f (``_weighted_l1``) around a closed-form f-update:
the projection onto {A f = y}, taken over the same f0 + N z, or a
penalised solve when eps > 0.  For eps > 0 both solvers penalise
|A f - y|_2^2 and ``_penalty_sweep`` raises the penalty weight until the
residual target is met.

Solvers hold no shared state, so independent instances may run
concurrently; BLAS may still use several threads inside one solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    IllConditionedError,
    InfeasibleOrDegenerateError,
    InvalidDimensionsError,
    InvalidParametersError,
)
from .frames import Frame, _atoms, _check_q

__all__ = [
    "LqProblem",
    "SolverConfig",
    "SolverResult",
    "irls_analysis",
    "irl1_analysis",
    "objective",
]


def objective(f, D, q: float) -> float:
    """Analysis objective |D^T f|_q^q (the q-th power, not the quasinorm)."""
    return float(np.sum(np.abs(_atoms(D).T @ f) ** q))


def _require_finite(**arrays) -> None:
    """Raise InvalidParametersError naming the first array with a NaN or inf."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise InvalidParametersError(f"{name} holds non-finite entries (NaN or inf)")


@dataclass(frozen=True)
class LqProblem:
    """One constrained l_q-analysis instance.

    ``norm_index`` selects the residual norm of the constraint: 2 or
    math.inf.  ``epsilon = 0`` means the equality constraint A f = y.
    """

    A: np.ndarray
    y: np.ndarray
    D: Frame
    q: float
    epsilon: float = 0.0
    norm_index: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        _require_finite(A=self.A, y=self.y, D=self.D.matrix)
        _check_q(self.q)
        if self.epsilon < 0.0:
            raise InvalidParametersError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.norm_index not in (2, 2.0, math.inf):
            raise InvalidParametersError(f"norm_index must be 2 or inf, got {self.norm_index}")
        m, n = self.A.shape
        if self.y.size != m:
            raise InvalidDimensionsError(f"y has length {self.y.size}, expected {m}")
        if self.D.ambient_dim != n:
            raise InvalidDimensionsError(
                f"dictionary ambient dimension {self.D.ambient_dim} != signal dimension {n}"
            )


@dataclass
class SolverConfig:
    """Knobs shared by IRLS and IRL1.

    The smoothing level at outer step j is max(sigma0 * sigma_decay^j,
    sigma_min), a nonincreasing positive sequence.
    """

    max_outer_iters: int = 300
    tol: float = 1e-10
    sigma0: float = 1.0
    sigma_decay: float = 0.7
    sigma_min: float = 1e-10
    inner_max_iters: int = 1500
    inner_tol: float = 1e-8
    penalty_lambda0: float = 1.0
    penalty_growth: float = 10.0
    penalty_max_sweeps: int = 12
    keep_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.sigma_decay < 1.0:
            raise InvalidParametersError("sigma_decay must lie in (0, 1)")
        if self.sigma0 <= 0.0 or self.sigma_min <= 0.0:
            raise InvalidParametersError("smoothing levels must be positive")
        for name in ("max_outer_iters", "inner_max_iters", "penalty_max_sweeps"):
            if getattr(self, name) < 1:
                raise InvalidParametersError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.penalty_lambda0 <= 0.0:
            raise InvalidParametersError(f"penalty_lambda0 must be positive, got {self.penalty_lambda0}")
        if self.penalty_growth <= 1.0:
            raise InvalidParametersError(f"penalty_growth must exceed 1, got {self.penalty_growth}")

    def sigma_at(self, j: int) -> float:
        return max(self.sigma0 * self.sigma_decay**j, self.sigma_min)


@dataclass
class SolverResult:
    """Solver output and per-iteration traces (length = iterations)."""

    f_hat: np.ndarray
    iterations: int
    objective_trace: list = field(default_factory=list)
    residual_trace: list = field(default_factory=list)
    converged: bool = False
    iterates: list | None = None


def _residual_norm(r: np.ndarray, norm_index: float) -> float:
    if norm_index == math.inf:
        return float(np.max(np.abs(r))) if r.size else 0.0
    return float(np.linalg.norm(r))


def _require_full_row_rank(A: np.ndarray) -> None:
    svals = np.linalg.svd(A, compute_uv=False)
    if svals.size < A.shape[0] or svals[-1] <= svals[0] * 1e-12:
        raise InfeasibleOrDegenerateError("measurement matrix is row-rank deficient")


def _spd_solve_factor(M: np.ndarray):
    try:
        return cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"{M.shape[0]}x{M.shape[0]} weighted Gram matrix is not numerically positive definite"
        ) from exc


def _null_space_parametrisation(A: np.ndarray, y: np.ndarray, Dm: np.ndarray):
    """The feasible set {f : A f = y} = {f0 + N z} and its analysis image.

    One complete QR of A^T = [Q1 Q2] [R1; 0] gives the least-norm solution
    f0 = Q1 R1^-T y and an orthonormal basis N = Q2 of ker A.  Returns
    ``(f0, N, B, c0)`` with B = D^T N and c0 = D^T f0, so that D^T f =
    c0 + B z on the feasible set.  A must have full row rank.
    """
    m = A.shape[0]
    Q, R = np.linalg.qr(A.T, mode="complete")
    f0 = Q[:, :m] @ solve_triangular(R[:m], y, trans="T")
    N = Q[:, m:]
    return f0, N, Dm.T @ N, Dm.T @ f0


def _reweight(problem: LqProblem, config: SolverConfig, f, coeffs, step, outer_tol: float) -> SolverResult:
    """The outer reweighting loop shared by every solver path.

    ``step(coeffs, sigma)`` maps D^T f of the current iterate to ``(f_new,
    D^T f_new, inner_ok)``; ``inner_ok`` is False when an inner solver hit
    its cap.  Stops once the relative change of f is below ``outer_tol``;
    ``converged`` also requires the last inner solve to have finished.
    """
    objective_trace, residual_trace = [], []
    iterates = [f.copy()] if config.keep_iterates else None
    converged = False
    for j in range(config.max_outer_iters):
        f_new, coeffs, inner_ok = step(coeffs, config.sigma_at(j))
        objective_trace.append(float(np.sum(np.abs(coeffs) ** problem.q)))
        residual_trace.append(_residual_norm(problem.A @ f_new - problem.y, problem.norm_index))
        if iterates is not None:
            iterates.append(f_new.copy())
        rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
        f = f_new
        if rel_change < outer_tol:
            converged = True
            break
    return SolverResult(
        f_hat=f,
        iterations=len(residual_trace),
        objective_trace=objective_trace,
        residual_trace=residual_trace,
        converged=converged and inner_ok,
        iterates=iterates,
    )


def _penalty_sweep(problem: LqProblem, config: SolverConfig, solve_at) -> SolverResult:
    """Noisy path: raise the penalty weight until the residual target holds.

    ``solve_at(lam)`` runs one reweighted solve with weight lam on the
    quadratic penalty |A f - y|_2^2.  The first result whose final residual,
    in the problem's ``norm_index``, is within ``epsilon`` is returned;
    otherwise the result with the smallest residual, with ``converged``
    False.
    """
    lam = config.penalty_lambda0
    best = None
    for _ in range(config.penalty_max_sweeps):
        result = solve_at(lam)
        if result.residual_trace[-1] <= problem.epsilon * (1.0 + 1e-8):
            return result
        if best is None or result.residual_trace[-1] < best.residual_trace[-1]:
            best = result
        lam *= config.penalty_growth
    best.converged = False
    return best


def irls_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted least squares for the l_q-analysis problem.

    Each outer step solves min_f sum_i w_i <d_i, f>^2 subject to A f = y
    with w_i = (<d_i, f_prev>^2 + sigma_j)^(q/2 - 1).  In the eps = 0 path
    the step is taken over the feasible set f = f0 + N z (see
    ``_null_space_parametrisation``): with B = D^T N and c0 = D^T f0 it
    solves (B^T W B) z = -B^T W c0, an (n - m) x (n - m) SPD system whose
    solution is the unique weighted least-squares minimiser on {A f = y},
    since D^T is injective and w > 0.  Iterates satisfy A f = y to rounding
    error; for fixed sigma a step never increases the smoothed surrogate
    sum_i (<d_i, f>^2 + sigma)^(q/2).  When A is square, ker A is trivial
    and the unique solution is returned after one step.  For eps > 0 each
    step solves (D W D^T + lam A^T A) f = lam A^T y instead.
    """
    config = config or SolverConfig()
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    _require_full_row_rank(A)

    def weights(coeffs, sigma):
        return (coeffs * coeffs + sigma) ** (q / 2.0 - 1.0)

    if problem.epsilon > 0.0:
        ata, aty = A.T @ A, A.T @ y

        def solve_at(lam):
            def step(coeffs, sigma):
                gram = (Dm * weights(coeffs, sigma)) @ Dm.T + lam * ata
                f_new = cho_solve(_spd_solve_factor(gram), lam * aty)
                return f_new, Dm.T @ f_new, True

            f = np.zeros(A.shape[1])
            return _reweight(problem, config, f, Dm.T @ f, step, config.tol)

        return _penalty_sweep(problem, config, solve_at)

    f0, N, B, c0 = _null_space_parametrisation(A, y, Dm)

    def step(coeffs, sigma):
        bw = B.T * weights(coeffs, sigma)
        z = cho_solve(_spd_solve_factor(bw @ B), -(bw @ c0))
        return f0 + N @ z, c0 + B @ z, True

    return _reweight(problem, config, f0, c0, step, config.tol)


def _soft_threshold(x: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def _weighted_l1(f_update, Dm, weights, u, z, config: SolverConfig):
    """ADMM for min sum w_i |<d_i, f>| over the f that ``f_update`` ranges over.

    Splits u = D^T f with scaled dual z, warm-started at (u, z).
    ``f_update(c)`` is the closed-form f-step for the target c = u - z.
    Returns ``(f, D^T f, u, z, ok)``; ok is False when the loop hit
    ``inner_max_iters`` before both residuals fell below ``inner_tol``.
    """
    for _ in range(config.inner_max_iters):
        f = f_update(u - z)
        coeffs = Dm.T @ f
        u_new = _soft_threshold(coeffs + z, weights)
        z = z + coeffs - u_new
        primal = np.linalg.norm(coeffs - u_new)
        dual = np.linalg.norm(u_new - u)
        u = u_new
        scale = max(1.0, np.linalg.norm(u))
        if primal <= config.inner_tol * scale and dual <= config.inner_tol * scale:
            return f, coeffs, u, z, True
    return f, coeffs, u, z, False


def irl1_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted l1 for the l_q-analysis problem.

    Each outer step solves min_f sum_i w_i |<d_i, f>| subject to A f = y
    with w_i = (|<d_i, f_prev>| + sigma_j)^(q - 1), via operator splitting
    on u = D^T f: an equality-constrained quadratic f-update in closed form,
    a weighted soft-threshold u-update, and a dual ascent on the coupling.
    For eps > 0 the f-update minimises the splitting term plus the penalty
    lam |A f - y|^2 instead of projecting.  Outer changes below the inner
    accuracy cannot be resolved, so the stopping threshold saturates at
    ``inner_tol``.  If an inner loop exhausts its cap the best iterate is
    still returned with ``converged`` False.
    """
    config = config or SolverConfig()
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    _require_full_row_rank(A)

    def reweighted_l1(f, f_update):
        u, z = Dm.T @ f, np.zeros(Dm.shape[1])

        def step(coeffs, sigma):
            nonlocal u, z
            weights = (np.abs(coeffs) + sigma) ** (q - 1.0)
            f_new, coeffs, u, z, ok = _weighted_l1(f_update, Dm, weights / np.mean(weights), u, z, config)
            return f_new, coeffs, ok

        return _reweight(problem, config, f, u, step, max(config.tol, config.inner_tol))

    if problem.epsilon > 0.0:
        gram, ata, aty = Dm @ Dm.T, A.T @ A, A.T @ y

        def solve_at(lam):
            kkt = _spd_solve_factor(gram + 2.0 * lam * ata)
            return reweighted_l1(np.zeros(A.shape[1]), lambda c: cho_solve(kkt, Dm @ c + 2.0 * lam * aty))

        return _penalty_sweep(problem, config, solve_at)

    f0, N, B, c0 = _null_space_parametrisation(A, y, Dm)
    gram_b = _spd_solve_factor(B.T @ B)

    def project(c):
        # argmin |D^T f - c| over f = f0 + N z
        return f0 + N @ cho_solve(gram_b, B.T @ (c - c0))

    return reweighted_l1(f0, project)
