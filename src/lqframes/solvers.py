"""Iteratively reweighted solvers for constrained l_q-analysis minimization.

Both solvers attack

    min |D^T f|_q^q   subject to   |A f - y|_r <= eps

by solving a sequence of convex surrogates: weighted least squares (IRLS)
or weighted l1 (IRL1), with weights refreshed from the current iterate and
a smoothing level that decays geometrically to a floor.  On the eps = 0
path IRLS works over the null space of A: with f0 the least-norm solution
of A f = y and N an orthonormal basis of ker A, every iterate is
f = f0 + N z, so it satisfies A f = y by construction, and each step is one
(n - m) x (n - m) symmetric positive definite solve for z.  The noisy path
replaces the constraint by a quadratic penalty whose weight is swept upward
until the residual target is met.

Solvers are single-threaded per problem instance and hold no shared state,
so independent instances may run concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from ._kernels import lq_powsum
from .errors import (
    IllConditionedError,
    InfeasibleOrDegenerateError,
    InvalidDimensionsError,
    InvalidParametersError,
)
from .frames import Frame

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
    mat = D.matrix if isinstance(D, Frame) else np.asarray(D, dtype=float)
    return lq_powsum(mat.T @ f, q)


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
        if not 0.0 < self.q <= 1.0:
            raise InvalidParametersError(f"q must lie in (0, 1], got {self.q}")
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


class _Trace:
    """Collects per-iteration traces and the stopping test."""

    def __init__(self, problem: LqProblem, config: SolverConfig, f0: np.ndarray):
        self.problem = problem
        self.config = config
        self.objective = []
        self.residual = []
        self.iterates = [f0.copy()] if config.keep_iterates else None

    def record(self, f: np.ndarray) -> None:
        Dm = self.problem.D.matrix
        self.objective.append(lq_powsum(Dm.T @ f, self.problem.q))
        self.residual.append(_residual_norm(self.problem.A @ f - self.problem.y, self.problem.norm_index))
        if self.iterates is not None:
            self.iterates.append(f.copy())

    def result(self, f: np.ndarray, iterations: int, converged: bool) -> SolverResult:
        return SolverResult(
            f_hat=f,
            iterations=iterations,
            objective_trace=self.objective,
            residual_trace=self.residual,
            converged=converged,
            iterates=self.iterates,
        )


def _null_space_parametrisation(A: np.ndarray, y: np.ndarray):
    """Least-norm solution f0 of A f = y and an orthonormal basis N of ker A.

    One complete QR of A^T = [Q1 Q2] [R1; 0] gives f0 = Q1 R1^-T y and
    N = Q2, so that {f : A f = y} = {f0 + N z}.  A must have full row rank.
    """
    m = A.shape[0]
    Q, R = np.linalg.qr(A.T, mode="complete")
    f0 = Q[:, :m] @ solve_triangular(R[:m], y, trans="T")
    return f0, Q[:, m:]


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
    and the unique solution is returned after one step.
    """
    config = config or SolverConfig()
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    _require_full_row_rank(A)
    if problem.epsilon > 0.0:
        return _irls_penalty(problem, config)

    f0, N = _null_space_parametrisation(A, y)
    B = Dm.T @ N
    c0 = Dm.T @ f0
    f, coeffs = f0, c0
    trace = _Trace(problem, config, f)
    converged = False
    iterations = 0
    for j in range(config.max_outer_iters):
        sigma = config.sigma_at(j)
        weights = (coeffs * coeffs + sigma) ** (q / 2.0 - 1.0)
        bw = B.T * weights
        z = cho_solve(_spd_solve_factor(bw @ B), -(bw @ c0))
        f_new = f0 + N @ z
        coeffs = c0 + B @ z
        trace.record(f_new)
        rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
        f = f_new
        iterations = j + 1
        if rel_change < config.tol:
            converged = True
            break
    return trace.result(f, iterations, converged)


def _irls_penalty(problem: LqProblem, config: SolverConfig) -> SolverResult:
    """Noisy-path IRLS: quadratic penalty with the weight swept upward."""
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    ata = A.T @ A
    aty = A.T @ y
    lam = config.penalty_lambda0
    best = None
    best_resid = math.inf
    for _ in range(config.penalty_max_sweeps):
        f = np.zeros(A.shape[1])
        trace = _Trace(problem, config, f)
        converged = False
        iterations = 0
        for j in range(config.max_outer_iters):
            sigma = config.sigma_at(j)
            coeffs = Dm.T @ f
            weights = (coeffs * coeffs + sigma) ** (q / 2.0 - 1.0)
            M = (Dm * weights) @ Dm.T
            f_new = cho_solve(_spd_solve_factor(M + lam * ata), lam * aty)
            trace.record(f_new)
            rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
            f = f_new
            iterations = j + 1
            if rel_change < config.tol:
                converged = True
                break
        resid = _residual_norm(A @ f - y, problem.norm_index)
        result = trace.result(f, iterations, converged)
        if resid <= problem.epsilon * (1.0 + 1e-8):
            return result
        if resid < best_resid:
            best, best_resid = result, resid
        lam *= config.penalty_growth
    best.converged = False
    return best


def _soft_threshold(x: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def irl1_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted l1 for the l_q-analysis problem.

    Each outer step solves min_f sum_i w_i |<d_i, f>| subject to A f = y
    with w_i = (|<d_i, f_prev>| + sigma_j)^(q - 1), via operator splitting
    on u = D^T f: an equality-constrained quadratic f-update in closed form,
    a weighted soft-threshold u-update, and a dual ascent on the coupling.
    Outer changes below the inner accuracy cannot be resolved, so the
    stopping threshold saturates at ``inner_tol``.  If an inner loop
    exhausts its cap the best iterate is still returned with ``converged``
    False.
    """
    config = config or SolverConfig()
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    _require_full_row_rank(A)
    if problem.epsilon > 0.0:
        return _irl1_penalty(problem, config)
    outer_tol = max(config.tol, config.inner_tol)

    gram_d = _spd_solve_factor(Dm @ Dm.T)
    ginv_at = cho_solve(gram_d, A.T)
    gram_a = _spd_solve_factor(A @ ginv_at)

    f, _ = _null_space_parametrisation(A, y)
    u = Dm.T @ f
    z = np.zeros_like(u)
    trace = _Trace(problem, config, f)
    converged = False
    inner_ok = True
    iterations = 0
    for j in range(config.max_outer_iters):
        sigma = config.sigma_at(j)
        weights = (np.abs(Dm.T @ f) + sigma) ** (q - 1.0)
        weights = weights / np.mean(weights)
        f_new, u, z, inner_ok = _weighted_l1_equality(
            Dm, A, y, weights, u, z, gram_d, ginv_at, gram_a, config
        )
        trace.record(f_new)
        rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
        f = f_new
        iterations = j + 1
        if rel_change < outer_tol:
            converged = True
            break
    return trace.result(f, iterations, converged and inner_ok)


def _weighted_l1_equality(Dm, A, y, weights, u, z, gram_d, ginv_at, gram_a, config):
    """ADMM for min sum w_i |<d_i, f>| s.t. A f = y, warm-started at (u, z)."""
    f = None
    ok = False
    for _ in range(config.inner_max_iters):
        c = u - z
        t = cho_solve(gram_d, Dm @ c)
        nu = cho_solve(gram_a, y - A @ t)
        f = t + ginv_at @ nu
        coeffs = Dm.T @ f
        u_new = _soft_threshold(coeffs + z, weights)
        z = z + coeffs - u_new
        primal = np.linalg.norm(coeffs - u_new)
        dual = np.linalg.norm(u_new - u)
        u = u_new
        scale = max(1.0, np.linalg.norm(u))
        if primal <= config.inner_tol * scale and dual <= config.inner_tol * scale:
            ok = True
            break
    return f, u, z, ok


def _irl1_penalty(problem: LqProblem, config: SolverConfig) -> SolverResult:
    """Noisy-path IRL1: quadratic penalty inside the splitting f-update."""
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    gram = Dm @ Dm.T
    ata = A.T @ A
    aty = A.T @ y
    lam = config.penalty_lambda0
    outer_tol = max(config.tol, config.inner_tol)
    best = None
    best_resid = math.inf
    for _ in range(config.penalty_max_sweeps):
        kkt = _spd_solve_factor(gram + 2.0 * lam * ata)
        f = np.zeros(A.shape[1])
        u = Dm.T @ f
        z = np.zeros_like(u)
        trace = _Trace(problem, config, f)
        converged = False
        inner_ok = True
        iterations = 0
        for j in range(config.max_outer_iters):
            sigma = config.sigma_at(j)
            weights = (np.abs(Dm.T @ f) + sigma) ** (q - 1.0)
            weights = weights / np.mean(weights)
            ok = False
            f_new = f
            for _ in range(config.inner_max_iters):
                c = u - z
                f_new = cho_solve(kkt, Dm @ c + 2.0 * lam * aty)
                coeffs = Dm.T @ f_new
                u_new = _soft_threshold(coeffs + z, weights)
                z = z + coeffs - u_new
                primal = np.linalg.norm(coeffs - u_new)
                dual = np.linalg.norm(u_new - u)
                u = u_new
                scale = max(1.0, np.linalg.norm(u))
                if primal <= config.inner_tol * scale and dual <= config.inner_tol * scale:
                    ok = True
                    break
            inner_ok = ok
            trace.record(f_new)
            rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
            f = f_new
            iterations = j + 1
            if rel_change < outer_tol:
                converged = True
                break
        resid = _residual_norm(A @ f - y, problem.norm_index)
        result = trace.result(f, iterations, converged and inner_ok)
        if resid <= problem.epsilon * (1.0 + 1e-8):
            return result
        if resid < best_resid:
            best, best_resid = result, resid
        lam *= config.penalty_growth
    best.converged = False
    return best
