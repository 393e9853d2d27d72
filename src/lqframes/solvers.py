"""Iteratively reweighted solvers for constrained l_q-analysis minimization.

Both solvers attack

    min |D^T f|_q^q   subject to   |A f - y|_r <= eps

by solving a sequence of convex surrogates, with weights refreshed from
the current iterate and a smoothing level sigma_j = max(0.7^j, 1e-10)
that decays geometrically to a floor (Chartrand and Yin, ICASSP 2008).
One driver, ``_reweight``, owns that outer loop, the traces and the
stopping rule; a path supplies only its step ``step(D^T f, sigma) ->
(f_new, D^T f_new, ok, final)``, where ``final`` says that the step did
not depend on sigma.  One QR of A^T writes the feasible set as
f = f0 + A^+ v + N z with v = A f - y, and both inner solvers work there;
its R1, which has the singular values of A, also refuses an A of
numerical rank below its row count.
The weighted least-squares step of IRLS (``_wls_steps``) is exact: at
eps = 0 one SPD solve in z; for eps > 0 the R factor of one QR holds the
reduced problem in v, solved by a trust-region step (l2, ``_ball_step``)
or an active-set step (l-inf, ``_box_step``), so every iterate meets the
constraint in the given norm; the ball step starts from the previous
step's multiplier, the box step from its v.  For eps > 0
IRL1 takes one such step per reweighting, on the atoms w_i d_i at q = 1:
it lowers a majoriser of the weighted-l1 objective, which is all that
majorise-minimise needs (Hunter and Lange, Am. Stat. 2004).  At eps = 0
the weighted-l1 step is a linear program over z, solved exactly by vertex
descent (``_l1_vertex``) from independent atoms, then from the last basis.

Solvers hold no shared state, so independent instances may run
concurrently.  A solve runs at one OpenBLAS thread (``_one_blas_thread``):
the scope that opened first in the process restores the caller's count
when the last one closes, and on another BLAS the count is left alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InvalidParametersError
from .frames import (
    _DPOSV, _RANK_RTOL, Frame, _atoms, _check_int, _check_q, _check_real, _floats, _matrix, _one_blas_thread,
    _rank, _require_finite, _require_frame,
)

__all__ = ["LqProblem", "SolverConfig", "SolverResult", "irls_analysis", "irl1_analysis", "objective"]


def objective(f, D, q: float) -> float:
    """Analysis objective |D^T f|_q^q (the q-th power, not the quasinorm), for q in (0, 1].

    f is a finite vector with one entry per row of D.
    """
    _check_q(q)
    Dm, f = _atoms(D), np.asarray(f, dtype=float)
    if f.shape != Dm.shape[:1]:
        raise InvalidParametersError(f"f has shape {f.shape}, expected ({Dm.shape[0]},)")
    _require_finite(f=f)
    return float(np.sum(np.abs(Dm.T @ f) ** q))


@dataclass(frozen=True)
class LqProblem:
    """One constrained l_q-analysis instance.

    ``norm_index`` selects the residual norm of the constraint: 2 or
    math.inf.  q lies in (0, 1] and epsilon in [0, inf]; ``epsilon = 0``
    means the equality constraint A f = y.
    """

    A: np.ndarray
    y: np.ndarray
    D: Frame
    q: float
    epsilon: float = 0.0
    norm_index: float = 2.0

    def __post_init__(self):
        _require_frame("D", self.D)
        object.__setattr__(self, "A", _matrix("A", self.A))
        object.__setattr__(self, "y", _floats("y", self.y).ravel())
        _require_finite(y=self.y, D=self.D.matrix)
        _check_q(self.q)
        _check_real("epsilon", self.epsilon, "[0, inf]")
        if self.norm_index not in (2, 2.0, math.inf):
            raise InvalidParametersError(f"norm_index must be 2 or inf, got {self.norm_index}")
        m, n = self.A.shape
        if self.y.size != m:
            raise InvalidParametersError(f"y has length {self.y.size}, expected {m}")
        if self.D.ambient_dim != n:
            raise InvalidParametersError(
                f"dictionary ambient dimension {self.D.ambient_dim} != signal dimension {n}"
            )


_SIGMA_MIN = 1e-10  # the smoothing floor


def _sigma_at(j: int) -> float:
    """Smoothing level at outer step j."""
    return max(0.7**j, _SIGMA_MIN)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by IRLS and IRL1.

    ``max_outer_iters`` caps the outer loop, which stops once the relative
    change of f is below ``tol`` and the smoothing sigma_j = max(0.7^j,
    1e-10) has reached its floor (IRL1 at q = 1 and eps = 0 need not wait
    for the floor).  Each outer step is one weighted
    least-squares step or, for IRL1 at eps = 0, one vertex descent, which
    ends when no pivot lowers its objective.  ``converged`` is False at the
    cap, or when the last box step hit its cap.
    """

    max_outer_iters: int = 300
    tol: float = 1e-10

    def __post_init__(self):
        _check_int("max_outer_iters", self.max_outer_iters, 1)
        _check_real("tol", self.tol, "(0, inf)")


@dataclass
class SolverResult:
    """Solver output and per-iteration traces (length = iterations), in the order ``lqframes solve`` prints them."""

    f_hat: np.ndarray
    iterations: int
    converged: bool
    objective_trace: list
    residual_trace: list


def _residual_norm(r: np.ndarray, norm_index: float) -> float:
    return float(np.max(np.abs(r))) if norm_index == math.inf else math.sqrt(r.dot(r))


def _spd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M z = b for a symmetric positive definite n x n M and a vector b.

    One LAPACK ``dposv`` call (Cholesky factorisation and solve) where numpy's
    OpenBLAS exports it; elsewhere numpy's Cholesky as the check and an LU
    solve.  M and b are left unchanged.  An M whose Cholesky factorisation
    fails raises IllConditionedError.
    """
    n = M.shape[0]
    message = f"{n}x{n} weighted Gram matrix is not numerically positive definite"
    if _DPOSV is None:
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(message) from exc
        return np.linalg.solve(M, b)
    if n == 0:  # LAPACK refuses a leading dimension of 0
        return np.zeros(0)
    a, z = np.array(M, dtype=float, order="F"), np.array(b, dtype=float)
    if _DPOSV(102, b"L", n, 1, a.ctypes.data, n, z.ctypes.data, n) != 0:  # 102: column-major
        raise IllConditionedError(message)
    return z


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
    """The feasible set in kernel coordinates, and the weighted least-squares step on it.

    One complete QR A^T = [Q1 Q2] [R1; 0] gives A^+ = Q1 R1^-T, f0 = A^+ y
    and N = Q2, so f = f0 + A^+ v + N z with v = A f - y, and D^T f = c0 + P v
    + B z (c0 = D^T f0, P = D^T A^+, B = D^T N).  Returns ``(f0, c0, N, B,
    step)``; ``step(weights) -> (f, D^T f, ok, False)`` minimises sum_i
    weights_i <d_i, f>^2 subject to |A f - y|_r <= eps (weights > 0).  At
    eps = 0, v = 0 and (B^T W B) z = -B^T W c0.  For eps > 0 the objective
    is |R [z; v; 1]|^2, with R the R factor of W^(1/2) [B P c0] (Golub and
    Van Loan, Matrix Computations, ch. 5) and k = n - m columns of B:
    its trailing block R[k:, k:] = [H h] leaves min |H v + h| over the ball
    or the box of radius eps, started from the previous step's mu or v,
    and then z solves R[:k, :k] z = -(R[:k, k:-1] v + R[:k, -1]).  ``ok``
    is False when the box step hit its cap.  R1 has the singular values of
    A, so an A of numerical rank below its row count (``_rank`` of R1's
    singular values; for m > n, R has fewer than m rows) raises
    InvalidParametersError, and R1 is nonsingular.
    """
    A, y, Dm, eps = problem.A, problem.y, problem.D.matrix, problem.epsilon
    m = A.shape[0]
    Q, R = np.linalg.qr(A.T, mode="complete")
    if _rank(np.linalg.svd(R[:m], compute_uv=False)) < m:
        raise InvalidParametersError("measurement matrix is row-rank deficient")
    f0, N = Q[:, :m] @ np.linalg.solve(R[:m].T, y), Q[:, m:]
    B, c0 = Dm.T @ N, Dm.T @ f0

    if eps == 0.0:
        def step(weights):
            bw = B.T * weights
            z = _spd_solve(bw @ B, -(bw @ c0))
            return f0 + N @ z, c0 + B @ z, True, False

        return f0, c0, N, B, step

    pinv = np.linalg.solve(R[:m], Q[:, :m].T).T
    BPc, k = np.column_stack([B, Dm.T @ pinv, c0]), N.shape[1]
    v, mu = np.zeros(m), 0.0

    def step(weights):
        nonlocal v, mu
        R = np.linalg.qr(np.sqrt(weights)[:, None] * BPc, mode="r")
        H, h = R[k:, k:-1], R[k:, -1]  # the part of W^(1/2) [P c0] that z cannot reach
        if problem.norm_index == math.inf:
            v, ok = _box_step(H, h, eps, v)
        else:
            (v, mu), ok = _ball_step(H, h, eps, mu), True
        z = np.linalg.solve(R[:k, :k], -(R[:k, k:-1] @ v + R[:k, -1]))
        f = f0 + pinv @ v + N @ z
        return f, Dm.T @ f, ok, False

    return f0, c0, N, B, step


def _reweight(problem: LqProblem, config: SolverConfig | None, f, coeffs, step) -> SolverResult:
    """The outer reweighting loop shared by every solver path.

    ``step(coeffs, sigma)`` maps D^T f of the current iterate to
    ``(f_new, D^T f_new, ok, final)``, with sigma = ``_sigma_at(j)``;
    ``ok`` is False when the box step hit its cap, and ``final`` says that
    the step did not depend on sigma.  Stops once the relative change of f
    is below ``config.tol`` and sigma has reached its floor, or the step
    was final (a step that left f unchanged would leave it so at every
    later sigma), or it was the first and left f exactly unchanged (the
    feasible set is one point); ``converged`` means that rule stopped the
    loop, and is False when the last box step hit its cap.  ``config=None``
    means ``SolverConfig()``.
    """
    config = config or SolverConfig()
    objective_trace, residual_trace = [], []
    converged = False
    for j in range(config.max_outer_iters):
        sigma = _sigma_at(j)
        f_new, coeffs, ok, final = step(coeffs, sigma)
        objective_trace.append(float((np.abs(coeffs) ** problem.q).sum()))
        residual_trace.append(_residual_norm(problem.A @ f_new - problem.y, problem.norm_index))
        change = f_new - f
        rel_change = math.sqrt(change.dot(change)) / max(math.sqrt(f.dot(f)), 1.0)
        f = f_new
        if rel_change < config.tol and (sigma <= _SIGMA_MIN or (j == 0 and rel_change == 0.0) or final):
            converged = True
            break
    return SolverResult(
        f_hat=f,
        iterations=j + 1,
        converged=converged and ok,
        objective_trace=objective_trace,
        residual_trace=residual_trace,
    )


@_one_blas_thread()
def irls_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted least squares for the l_q-analysis problem.

    Each outer step solves min_f sum_i w_i <d_i, f>^2 subject to
    |A f - y|_r <= eps with w_i = (<d_i, f_prev>^2 + sigma_j)^(q/2 - 1),
    exactly, by ``_wls_steps``, so every iterate meets the constraint to
    rounding error and, for fixed sigma, a step never increases the
    smoothed surrogate sum_i (<d_i, f>^2 + sigma)^(q/2).  When A is square
    the feasible set at eps = 0 is the point A^-1 y, returned after one step.
    """
    f0, c0, _, _, wls = _wls_steps(problem)
    exponent = problem.q / 2.0 - 1.0
    return _reweight(problem, config, f0, c0, lambda c, sigma: wls((c * c + sigma) ** exponent))


def _independent_atoms(B, order):
    """The first k = B.shape[1] atoms in ``order`` whose rows of B are independent of the rows kept before them.

    Gram-Schmidt keeps a row whose residual is above ``_RANK_RTOL`` times its norm: no zero or repeated atom.
    """
    Q, Z = np.empty((0, B.shape[1])), []
    for i in order:
        r = B[i] - Q.T @ (Q @ B[i])
        r -= Q.T @ (Q @ r)  # the second pass restores the orthogonality rounding lost
        norm = np.linalg.norm(r)
        if norm > _RANK_RTOL * np.linalg.norm(B[i]):
            Q, Z = np.vstack([Q, r / norm]), Z + [i]
            if len(Z) == B.shape[1]:
                break
    return np.array(Z)


def _l1_vertex(B, c0, w, Z):
    """min sum_i w_i |c_i| over c = c0 + B z, by vertex descent from B_Z z = -c0_Z.

    In the kernel coordinates of ``_wls_steps`` every z is feasible; a
    vertex is a set Z of k = B.shape[1] atoms, B_Z nonsingular, with c_Z =
    0; multipliers B_Z^T u = -B_S^T (w sign c)_S (S the rest) with |u_i| <=
    w_i prove it optimal.  Otherwise atom i with the largest |u_i| - w_i
    leaves Z along dz = B_Z^-1 e_i sign(u_i), and the atom j at which the
    slope along that edge turns nonnegative joins (Barrodale and Roberts,
    SIAM J. Numer. Anal. 1973); <b_j, dz> != 0 keeps B_Z nonsingular.  The
    descent ends when a pivot lowers the objective by no more than 1e-12
    relative, so no vertex recurs.  Returns ``(z, Z)``, Z its last basis.
    """
    Z = np.array(Z)
    z = np.linalg.solve(B[Z], -c0[Z])
    c = c0 + B @ z
    while True:
        S = np.ones(c.size, dtype=bool)
        S[Z] = False
        u = np.linalg.solve(B[Z].T, -(B[S].T @ (w[S] * np.sign(c[S]))))
        excess = np.abs(u) - w[Z]
        i = np.argmax(excess)
        if excess[i] <= 0.0:
            break
        dz = np.linalg.solve(B[Z], np.eye(Z.size)[i] * np.sign(u[i]))
        r = B @ dz  # d c / d step
        ahead = np.flatnonzero(S & (r * c < 0.0))  # coefficients the step drives to zero
        if not ahead.size:
            break
        alpha = -c[ahead] / r[ahead]
        order = np.argsort(alpha)
        slope = -excess[i] + np.cumsum(2.0 * w[ahead[order]] * np.abs(r[ahead[order]]))
        j = order[min(np.searchsorted(slope, 0.0), order.size - 1)]
        c_new = c + alpha[j] * r
        if not w @ np.abs(c_new) < (1.0 - 1e-12) * (w @ np.abs(c)):
            break
        z, c, Z[i] = z + alpha[j] * dz, c_new, ahead[j]
    return z, Z


@_one_blas_thread()
def irl1_analysis(problem: LqProblem, config: SolverConfig | None = None) -> SolverResult:
    """Iteratively reweighted l1 for the l_q-analysis problem.

    Each outer step lowers sum_i w_i |<d_i, f>| subject to |A f - y|_r <=
    eps, w_i = (|<d_i, f_prev>| + sigma_j)^(q - 1) scaled to mean 1.  At
    eps = 0 ``_l1_vertex`` reaches the minimum, a vertex where n - m
    coefficients vanish, from the basis the last descent ended on; the
    first starts from ``_independent_atoms`` in order of w_i |<d_i, f0>|.
    For eps > 0, or a square A, it takes one weighted least-squares step
    of IRLS at q = 1 on the atoms w_i d_i, with weights
    w_i^2 / sqrt((w_i <d_i, f_prev>)^2 + s), s = max(sigma_j^2, 1e-10) in
    squared coefficient units.  ``converged`` is False when the last box
    step hit its cap.  At q = 1 every w_i is 1 whatever sigma is, so a
    vertex step that leaves f unchanged is final: the loop stops there.
    """
    f0, c0, N, B, wls = _wls_steps(problem)
    Z = None

    def step(coeffs, sigma):
        nonlocal Z
        w = (np.abs(coeffs) + sigma) ** (problem.q - 1.0)
        w /= np.mean(w)
        if problem.epsilon > 0.0 or not N.size:
            return wls(w * w / np.sqrt((w * coeffs) ** 2 + max(sigma**2, _SIGMA_MIN)))
        if Z is None:
            Z = _independent_atoms(B, np.argsort(w * np.abs(coeffs)))
        z, Z = _l1_vertex(B, c0, w, Z)
        f = f0 + N @ z
        return f, problem.D.matrix.T @ f, True, problem.q == 1.0  # at q = 1 the weights ignore sigma

    return _reweight(problem, config, f0, c0, step)
