"""Iteratively reweighted solvers for constrained l_q-analysis minimization.

Both solvers attack

    min |D^T f|_q^q   subject to   |A f - y|_r <= eps

by solving a sequence of convex surrogates, with weights refreshed from
the current iterate and a smoothing level sigma_j = max(0.7^j, 1e-10)
that decays geometrically to a floor (Chartrand and Yin, ICASSP 2008).
One driver, ``_reweight``, owns that outer loop, the traces and the
stopping rule; a path supplies only its step ``step(f, D^T f, sigma) ->
(f_new, D^T f_new, inner_ok)``.  There is one inner solver, the weighted
least-squares step of IRLS (``_wls_steps``), taken exactly over f = f0 +
A^+ v + N z with v = A f - y: at eps = 0 it is one SPD solve in z, and for
eps > 0 a trust-region step (l2, ``_ball_step``) or an active-set step
(l-inf, ``_box_step``) in v, so every iterate meets the constraint in the
given norm; the ball step starts from the previous step's multiplier, the
box step from its v.  IRL1 reweights around IRLS at q = 1 on the atoms
w_i d_i; each inner run starts at the outer iterate, with its smoothing
schedule started at max(sigma_j^2, 1e-10), and keeps no traces.

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

__all__ = ["LqProblem", "SolverConfig", "SolverResult", "irls_analysis", "irl1_analysis", "objective"]


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


_SIGMA_MIN = 1e-10  # the smoothing floor


def _sigma_at(j: int, sigma0: float = 1.0) -> float:
    """Smoothing level at outer step j of a schedule started at ``sigma0``."""
    return max(sigma0 * 0.7**j, _SIGMA_MIN)


@dataclass
class SolverConfig:
    """Knobs shared by IRLS and IRL1.

    ``max_outer_iters`` caps the outer loop, which stops once the relative
    change of f is below ``tol`` and the smoothing sigma_j = max(0.7^j,
    1e-10) has reached its floor.  The inner IRLS runs of IRL1 keep the
    default cap and the caller's ``tol``, and start at the outer iterate
    with their schedule started at max(sigma_j^2, 1e-10).
    """

    max_outer_iters: int = 300
    tol: float = 1e-10
    keep_iterates: bool = False

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise InvalidParametersError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")


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


def _ball_step(H: np.ndarray, h: np.ndarray, radius: float, mu: float = 0.0):
    """min |H v + h|_2 over |v|_2 <= radius, for H of full column rank.

    A trust-region step (More and Sorensen, SISSC 1983) from one SVD of H:
    ``(v, mu)`` with (H^T H + mu I) v = -H^T h, where mu = 0 if the
    unconstrained minimiser lies in the ball and otherwise |v| = radius.
    Newton's method on 1/|v(mu)| = 1/radius starts from the given ``mu``,
    the previous step's multiplier.  1/|v(mu)| is concave, so one step from
    above the root lands at or below it (clamped at 0), and from there mu
    rises monotonically until |v| is within 1e-13 of the radius, or mu = 0
    with |v| <= radius.  When H^T h vanishes, v = 0 and mu = 0.
    """
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    g, s2 = s * (U.T @ h), s * s
    if not g.any():
        return np.zeros(H.shape[1]), 0.0
    for _ in range(50):
        den = s2 + mu
        x = g / den  # v = -V x
        norm = math.sqrt(x @ x)
        if abs(norm - radius) <= radius * 1e-13 or (mu == 0.0 and norm <= radius):
            break
        mu = max(mu + (norm - radius) / radius * norm * norm / ((x / den) @ x), 0.0)
    if norm > radius:
        x *= radius / norm
    return -(Vt.T @ x), mu


def _box_step(H: np.ndarray, h: np.ndarray, radius: float, v: np.ndarray):
    """min |H v + h|_2 over |v|_inf <= radius, for H of full column rank.

    A primal active-set method (Stark and Parker, Comput. Stat. 1995),
    warm-started at ``v``: variables at a bound stay there while the free
    ones take their least-squares value, stepping back to the first bound
    crossed; a bound variable whose multiplier has the wrong sign is freed.
    Returns ``(v, ok)``; ok is False when 3 m + 3 moves did not settle the
    active set.
    """
    v = np.clip(v, -radius, radius)
    free = np.abs(v) < radius
    scale = 1e-12 * np.linalg.norm(H, axis=0)
    for _ in range(3 * v.size + 3):
        target = v.copy()
        target[free] = np.linalg.lstsq(H[:, free], -(h + H[:, ~free] @ v[~free]), rcond=None)[0]
        out = free & (np.abs(target) > radius)
        if out.any():
            # move towards target until the first free variable reaches its bound
            bound = np.sign(target) * radius
            ratio = np.full(v.size, np.inf)
            ratio[out] = (bound[out] - v[out]) / (target[out] - v[out])
            alpha = ratio.min()
            v = v + alpha * (target - v)
            hit = ratio <= alpha
            v[hit] = bound[hit]
            free &= ~hit
            continue
        v = target
        r = H @ v + h
        # at v_i = +radius the gradient must be <= 0, at -radius >= 0
        violation = np.where(free, -np.inf, np.sign(v) * (H.T @ r) - scale * np.linalg.norm(r))
        k = np.argmax(violation)
        if violation[k] <= 0.0:
            return v, True
        free[k] = True
    return v, False


def _wls_steps(problem: LqProblem):
    """The one inner solver: a weighted least-squares step on the constraint set.

    One complete QR of A^T = [Q1 Q2] [R1; 0] gives the least-norm solution
    f0 = Q1 R1^-T y of A f = y, A^+ = Q1 R1^-T and an orthonormal basis
    N = Q2 of ker A, so the constraint set is f = f0 + A^+ v + N z with
    v = A f - y, and D^T f = c0 + P v + B z (c0 = D^T f0, P = D^T A^+,
    B = D^T N).  Returns ``(f0, c0, step)``; ``step(weights) -> (f, D^T f,
    ok)`` minimises sum_i weights_i <d_i, f>^2 subject to |A f - y|_r <= eps
    (weights > 0).  At eps = 0, v = 0 and (B^T W B) z = -B^T W c0.  For
    eps > 0 a QR of W^(1/2) B eliminates z, leaving min |H v + h| over the
    ball or the box of radius eps.  Each step starts from the previous
    one: the ball step from its multiplier mu, the box step from its v;
    ``ok`` is False when the box step hit its cap.
    """
    A, y, Dm, eps = problem.A, problem.y, problem.D.matrix, problem.epsilon
    m = A.shape[0]
    Q, R = np.linalg.qr(A.T, mode="complete")
    f0 = Q[:, :m] @ solve_triangular(R[:m], y, trans="T")
    N = Q[:, m:]
    B, c0 = Dm.T @ N, Dm.T @ f0

    if eps == 0.0:
        def step(weights):
            bw = B.T * weights
            z = cho_solve(_spd_solve_factor(bw @ B), -(bw @ c0))
            return f0 + N @ z, c0 + B @ z, True

        return f0, c0, step

    pinv = np.linalg.solve(R[:m], Q[:, :m].T).T
    Pc = np.column_stack([Dm.T @ pinv, c0])
    v, mu = np.zeros(m), 0.0

    def step(weights):
        nonlocal v, mu
        root = np.sqrt(weights)[:, None]
        Qb, Rb = np.linalg.qr(root * B)
        X = root * Pc
        C = Qb.T @ X
        X -= Qb @ C  # [H h]: the part of W^(1/2) [P c0] that z cannot reach
        if problem.norm_index == math.inf:
            v, ok = _box_step(X[:, :-1], X[:, -1], eps, v)
        else:
            (v, mu), ok = _ball_step(X[:, :-1], X[:, -1], eps, mu), True
        z = np.linalg.solve(Rb, -(C[:, :-1] @ v + C[:, -1]))
        f = f0 + pinv @ v + N @ z
        return f, Dm.T @ f, ok

    return f0, c0, step


def _reweight(
    problem: LqProblem, config: SolverConfig, f, coeffs, step, sigma0: float = 1.0, traces: bool = True
) -> SolverResult:
    """The outer reweighting loop shared by every solver path.

    ``step(f, coeffs, sigma)`` maps the current iterate f and its D^T f to
    ``(f_new, D^T f_new, inner_ok)``, with sigma = ``_sigma_at(j, sigma0)``;
    ``inner_ok`` is False when an inner solver hit its cap.  Stops once the
    relative change of f is below ``config.tol`` and sigma has reached its
    floor, or when the first step leaves f exactly unchanged (the feasible
    set is one point); ``converged`` also requires the last inner solve to
    have finished.  With ``traces=False`` the objective and residual traces
    stay empty.
    """
    objective_trace, residual_trace = [], []
    iterates = [f.copy()] if config.keep_iterates else None
    converged = False
    for j in range(config.max_outer_iters):
        sigma = _sigma_at(j, sigma0)
        f_new, coeffs, inner_ok = step(f, coeffs, sigma)
        if traces:
            objective_trace.append(float(np.sum(np.abs(coeffs) ** problem.q)))
            residual_trace.append(_residual_norm(problem.A @ f_new - problem.y, problem.norm_index))
        if iterates is not None:
            iterates.append(f_new.copy())
        rel_change = np.linalg.norm(f_new - f) / max(np.linalg.norm(f), 1.0)
        f = f_new
        if rel_change < config.tol and (sigma <= _SIGMA_MIN or (j == 0 and rel_change == 0.0)):
            converged = True
            break
    return SolverResult(
        f_hat=f,
        iterations=j + 1,
        objective_trace=objective_trace,
        residual_trace=residual_trace,
        converged=converged and inner_ok,
        iterates=iterates,
    )


def irls_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted least squares for the l_q-analysis problem.

    Each outer step solves min_f sum_i w_i <d_i, f>^2 subject to
    |A f - y|_r <= eps with w_i = (<d_i, f_prev>^2 + sigma_j)^(q/2 - 1),
    exactly, by ``_wls_steps``, so every iterate meets the constraint to
    rounding error and, for fixed sigma, a step never increases the
    smoothed surrogate sum_i (<d_i, f>^2 + sigma)^(q/2).  When A is square
    the feasible set at eps = 0 is the point A^-1 y, returned after one step.
    """
    config = config or SolverConfig()
    _require_full_row_rank(problem.A)
    f0, c0, wls = _wls_steps(problem)
    exponent = problem.q / 2.0 - 1.0
    return _reweight(problem, config, f0, c0, lambda _, c, sigma: wls((c * c + sigma) ** exponent))


def irl1_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted l1 for the l_q-analysis problem.

    Each outer step approximates min_f sum_i w_i |<d_i, f>| subject to
    |A f - y|_r <= eps, w_i = (|<d_i, f_prev>| + sigma_j)^(q - 1) scaled to
    mean 1, by IRLS at q = 1 on the atoms w_i d_i with the caller's tol and
    the default cap.  Each inner run starts at the outer iterate f_prev, and
    its smoothing schedule at max(sigma_j^2, 1e-10): the inner
    sqrt((w_i <d_i, f>)^2 + s) is in squared coefficient units, the outer
    |<d_i, f>| + sigma_j in plain ones.  At eps = 0 the weighted-l1
    minimum is a vertex, where n - m coefficients vanish: the inner result
    moves to [A; D_Z^T] f = [y; 0], Z its n - m smallest weighted
    coefficients, when that does not raise the weighted-l1 objective.
    Only the outer loop keeps traces; the inner runs keep none.
    ``converged`` is False when the last inner run hit its cap.
    """
    config = config or SolverConfig()
    A, y, Dm, q = problem.A, problem.y, problem.D.matrix, problem.q
    _require_full_row_rank(A)
    f0, c0, wls = _wls_steps(problem)
    inner_config = SolverConfig(tol=config.tol)
    k = A.shape[1] - A.shape[0]

    def step(f, coeffs, sigma):
        w = (np.abs(coeffs) + sigma) ** (q - 1.0)
        w /= np.mean(w)

        def inner_step(_, c, s):
            return wls(w * w / np.sqrt((w * c) ** 2 + s))

        inner = _reweight(problem, inner_config, f, coeffs, inner_step, max(sigma**2, _SIGMA_MIN), traces=False)
        f_new, coeffs = inner.f_hat, Dm.T @ inner.f_hat
        if problem.epsilon == 0.0 and k > 0:
            Z = np.argsort(w * np.abs(coeffs))[:k]
            try:
                vertex = np.linalg.solve(np.vstack([A, Dm[:, Z].T]), np.concatenate([y, np.zeros(k)]))
            except np.linalg.LinAlgError:  # these k atoms do not fix a vertex
                return f_new, coeffs, inner.converged
            c_vertex = Dm.T @ vertex
            if w @ np.abs(c_vertex) <= w @ np.abs(coeffs):
                f_new, coeffs = vertex, c_vertex
        return f_new, coeffs, inner.converged

    return _reweight(problem, config, f0, c0, step)
