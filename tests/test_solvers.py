import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import lqframes
from lqframes import (
    Frame,
    IllConditionedError,
    InvalidParametersError,
    LqProblem,
    SolverConfig,
    cosparse_signal,
    irl1_analysis,
    irls_analysis,
    objective,
    random_tight_frame,
)
import lqframes.solvers as solvers
from lqframes.solvers import _ball_step, _box_step, _spd_solve


def _reference_instance(seed=0):
    ss = np.random.SeedSequence([0, 0, seed])
    sa, sd, sf = ss.spawn(3)
    A = np.random.default_rng(sa).standard_normal((50, 100))
    D = random_tight_frame(100, 110, sd)
    f, _ = cosparse_signal(D, 25, sf)
    return A, D, f


def _surrogate(c, sigma, q):
    """sum_i (c_i^2 + sigma)^(q/2), the smoothed objective IRLS descends."""
    return float(np.sum((c * c + sigma) ** (q / 2.0)))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero():
    assert objective(np.zeros(4), np.eye(4), 0.7) == 0.0


def test_objective_unit_entries():
    assert objective(np.array([1.0, 1.0]), np.eye(2), 0.5) == pytest.approx(2.0)


def test_objective_lq_powsum_reference():
    # with D = I the objective is the plain sum |x_i|^q
    x = np.array([1.0, -2.0, 0.0, 3.0])
    assert objective(x, np.eye(4), 1.0) == pytest.approx(6.0)
    assert objective(x, np.eye(4), 0.5) == pytest.approx(1.0 + 2.0**0.5 + 3.0**0.5)


@pytest.mark.parametrize("f", [np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3))])
def test_objective_refuses_an_f_that_is_not_a_vector_over_the_rows_of_d(f):
    with pytest.raises(InvalidParametersError, match="f has shape"):
        objective(f, np.eye(3), 0.7)


def test_objective_homogeneity():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((4, 6))
    f = rng.standard_normal(4)
    q, c = 0.7, -2.5
    assert objective(c * f, D, q) == pytest.approx(abs(c) ** q * objective(f, D, q), rel=1e-12)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_rejects_bad_q():
    D = Frame.from_matrix(np.eye(3))
    with pytest.raises(InvalidParametersError):
        LqProblem(A=np.eye(3), y=np.zeros(3), D=D, q=1.5)


def test_problem_rejects_1d_measurement_matrix():
    D = Frame.from_matrix(np.eye(3))
    with pytest.raises(InvalidParametersError, match="^A must be a 2-D matrix"):
        LqProblem(A=np.ones(3), y=np.ones(1), D=D, q=0.5)


def test_problem_rejects_a_measurement_matrix_without_rows():
    D = Frame.from_matrix(np.eye(3))
    with pytest.raises(InvalidParametersError, match="every dimension must be positive"):
        LqProblem(A=np.zeros((0, 3)), y=np.zeros(0), D=D, q=0.7)


def test_problem_rejects_bad_norm_index():
    D = Frame.from_matrix(np.eye(3))
    with pytest.raises(InvalidParametersError):
        LqProblem(A=np.eye(3), y=np.zeros(3), D=D, q=0.5, norm_index=1.0)


@pytest.mark.parametrize("field", ["A", "y", "D"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite_input(field, bad):
    args = {"A": np.eye(3), "y": np.ones(3), "D": np.eye(3)}
    args[field] = args[field].copy()
    args[field][-1] = bad
    D = Frame(matrix=args.pop("D"), lower_bound=1.0, upper_bound=1.0)
    with pytest.raises(InvalidParametersError, match=f"^{field} holds non-finite"):
        LqProblem(D=D, q=0.5, **args)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_outer_iters", 0), ("max_outer_iters", 2.5), ("tol", 0.0), ("tol", -1.0), ("tol", math.nan),
        ("tol", math.inf),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(InvalidParametersError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("max_outer_iters", 0), ("tol", -1.0)])
def test_config_cannot_change_after_its_checks(field, value):
    # a mutable config let max_outer_iters = 0 reach the solver loop, which then raised UnboundLocalError
    config = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"y": np.ones(3)}, "^y has length 3, expected 2$"),
        ({"D": Frame(matrix=np.eye(3), lower_bound=1.0, upper_bound=1.0)},
         "^dictionary ambient dimension 3 != signal dimension 2$"),
    ],
    ids=["y-length", "dictionary-dimension"],
)
def test_problem_rejects_mismatched_dimensions(change, message):
    args = {"A": np.eye(2), "y": np.ones(2), "D": Frame(matrix=np.eye(2), lower_bound=1.0, upper_bound=1.0)}
    with pytest.raises(InvalidParametersError, match=message):
        LqProblem(q=0.7, **{**args, **change})


def test_spd_factor_failure_is_an_lqframes_error():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditionedError, match="not numerically positive definite"):
        _spd_solve(indefinite, np.ones(2))


# _spd_solve has two paths: one LAPACK dposv call where numpy's OpenBLAS
# exports it, and numpy's Cholesky check plus an LU solve elsewhere, which
# the tests force by hiding the looked-up function.
needs_dposv = pytest.mark.skipif(solvers._DPOSV is None, reason="numpy's BLAS exports no LAPACKE dposv")


def _numpy_spd_solve(monkeypatch, M, b):
    with monkeypatch.context() as patched:
        patched.setattr(solvers, "_DPOSV", None)
        return _spd_solve(M, b)


def _spd_system(n, seed):
    X = np.random.default_rng(seed).standard_normal((n, n + 1))
    return X @ X.T + n * np.eye(n), X[:, -1]


def _laid_out(M, b, layout):
    if layout == "C":
        return np.ascontiguousarray(M), b.copy()
    if layout == "F":
        return np.asfortranarray(M), b.copy()
    n = b.size  # every other entry of arrays twice as large: neither C- nor F-contiguous
    M2, b2 = np.zeros((2 * n, 2 * n)), np.zeros(2 * n)
    M2[::2, ::2], b2[::2] = M, b
    return M2[::2, ::2], b2[::2]


@needs_dposv
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 50])
def test_spd_solve_paths_agree_and_leave_their_inputs_unchanged(monkeypatch, n, layout):
    M, b = _laid_out(*_spd_system(n, n), layout)
    M_before, b_before = M.copy(), b.copy()
    z_fast = _spd_solve(M, b)
    z_numpy = _numpy_spd_solve(monkeypatch, M, b)
    assert z_fast.shape == z_numpy.shape == (n,)
    assert np.linalg.norm(z_fast - z_numpy) <= 1e-12 * np.linalg.norm(z_numpy)
    np.testing.assert_array_equal(M, M_before)
    np.testing.assert_array_equal(b, b_before)


def _third_leading_minor_fails():
    M = np.eye(5)
    M[0, 2] = M[2, 0] = 2.0  # the leading 3 x 3 block has determinant -3
    return M


@needs_dposv
@pytest.mark.parametrize(
    "M",
    # the last is positive definite in its upper triangle: like numpy's check, dposv reads the lower one
    [np.array([[1.0, 2.0], [2.0, 1.0]]), _third_leading_minor_fails(), np.array([[1.0, 0.0], [2.0, 1.0]])],
    ids=["indefinite-2x2", "third-minor-5x5", "indefinite-lower-triangle"],
)
def test_spd_solve_paths_refuse_a_failed_cholesky_with_one_message(monkeypatch, M):
    n = M.shape[0]
    message = f"^{n}x{n} weighted Gram matrix is not numerically positive definite$"
    with pytest.raises(IllConditionedError, match=message):
        _spd_solve(M, np.ones(n))
    with pytest.raises(IllConditionedError, match=message):
        _numpy_spd_solve(monkeypatch, M, np.ones(n))


@needs_dposv
def test_irls_takes_the_same_steps_on_both_spd_paths(monkeypatch):
    A, D, f = _reference_instance(0)
    problem = LqProblem(A=A, y=A @ f, D=D, q=0.7)
    fast = irls_analysis(problem)
    monkeypatch.setattr(solvers, "_DPOSV", None)
    slow = irls_analysis(problem)
    assert fast.iterations == slow.iterations
    assert fast.converged and slow.converged
    assert np.linalg.norm(fast.f_hat - slow.f_hat) <= 1e-12 * np.linalg.norm(slow.f_hat)


@needs_dposv
def test_the_dposv_path_calls_no_numpy_factorisation(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    M, b = _spd_system(17, 0)
    for name in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    _spd_solve(M, b)
    assert calls == []
    _numpy_spd_solve(monkeypatch, M, b)  # the spies do see the other path
    assert calls == ["cholesky", "solve"]


@needs_dposv
def test_concurrent_spd_solves_match_their_serial_answers():
    systems = [_spd_system(50, seed) for seed in (1, 2)]
    serial = [_spd_solve(M, b) for M, b in systems]
    answers = [[], []]

    def solve(k):
        M, b = systems[k]
        answers[k] = [_spd_solve(M, b) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for expected, got in zip(serial, answers):
        assert len(got) == 200
        for z in got:
            np.testing.assert_array_equal(z, expected)


def test_solver_rejects_row_rank_deficient():
    D = Frame.from_matrix(np.eye(3))
    A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(InvalidParametersError, match="^measurement matrix is row-rank deficient$"):
        irls_analysis(LqProblem(A=A, y=np.zeros(2), D=D, q=0.5))


def test_solver_rejects_more_measurements_than_unknowns():
    # 4 rows of rank 3: the complete QR of A^T leaves R1 only 3 rows, so its rank test refuses A
    A = np.ones((4, 3)) + np.eye(4, 3)
    with pytest.raises(InvalidParametersError, match="^measurement matrix is row-rank deficient$"):
        irls_analysis(LqProblem(A=A, y=np.zeros(4), D=Frame.from_matrix(np.eye(3)), q=0.5))


def _closure(fn):
    """The variables a nested function closes over, by name."""
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


@pytest.mark.parametrize("shape", [(50, 100), (6, 12), (6, 6)], ids=["reference", "desk", "square"])
def test_kernel_coordinates_are_an_orthonormal_kernel_basis_and_the_pseudoinverse(shape):
    m, n = shape
    rng = np.random.default_rng(m + n)
    A, y = rng.standard_normal(shape), rng.standard_normal(m)
    D = random_tight_frame(n, n + 10, 0)
    f0, _, N, _, _ = solvers._wls_steps(LqProblem(A=A, y=y, D=D, q=0.7))
    assert N.shape == (n, n - m)
    assert np.max(np.abs(N.T @ N - np.eye(n - m)), initial=0.0) <= 1e-13
    assert np.max(np.abs(A @ N), initial=0.0) <= 1e-13
    pinv = np.linalg.pinv(A)
    assert np.max(np.abs(f0 - pinv @ y)) <= 1e-12
    *_, step = solvers._wls_steps(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.1))
    assert np.max(np.abs(_closure(step)["pinv"] - pinv)) <= 1e-12


# ---------------------------------------------------------------------------
# IRLS
# ---------------------------------------------------------------------------

def test_irls_identity_measurement_single_iteration():
    D = random_tight_frame(5, 8, 1)
    y = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    res = irls_analysis(LqProblem(A=np.eye(5), y=y, D=D, q=0.7))
    assert res.iterations == 1
    assert res.converged
    np.testing.assert_allclose(res.f_hat, y, atol=1e-12)


def test_irls_square_measurement_returns_unique_solution_in_one_step():
    # m = n: ker A is trivial, so the feasible set is the single point A^-1 y
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    y = rng.standard_normal(6)
    res = irls_analysis(LqProblem(A=A, y=y, D=random_tight_frame(6, 9, 3), q=0.5))
    assert res.iterations == 1
    assert res.converged
    np.testing.assert_allclose(res.f_hat, np.linalg.solve(A, y), rtol=1e-10, atol=1e-12)


def test_irls_step_is_the_weighted_least_squares_kkt_solution(record_iterates):
    # each iterate solves min sum_i w_i <d_i, f>^2 s.t. A f = y with the
    # weights of the previous iterate; compare with the full KKT system
    rng = np.random.default_rng(4)
    n, d, m, q = 12, 15, 6, 0.5
    D = random_tight_frame(n, d, 4)
    A = rng.standard_normal((m, n))
    f, _ = cosparse_signal(D, 5, 44)
    y = A @ f
    res = irls_analysis(LqProblem(A=A, y=y, D=D, q=q))
    [iterates] = record_iterates
    assert res.iterations >= 5
    Dm = D.matrix
    for j in range(res.iterations):
        coeffs = Dm.T @ iterates[j]
        weights = (coeffs * coeffs + solvers._sigma_at(j)) ** (q / 2.0 - 1.0)
        kkt = np.block([[2.0 * (Dm * weights) @ Dm.T, A.T], [A, np.zeros((m, m))]])
        expected = np.linalg.solve(kkt, np.concatenate([np.zeros(n), y]))[:n]
        np.testing.assert_allclose(iterates[j + 1], expected, rtol=1e-9)


def test_equality_step_matches_a_cholesky_solve():
    # the eps = 0 step solves (B^T W B) z = -B^T W c0 over f = f0 + N z;
    # scipy's Cholesky solve of the same system is the reference
    from scipy.linalg import cho_factor, cho_solve

    A, D, f = _reference_instance(0)
    f0, c0, _, _, step = solvers._wls_steps(LqProblem(A=A, y=A @ f, D=D, q=0.7))
    weights = 10.0 ** np.random.default_rng(0).uniform(-2.0, 2.0, D.matrix.shape[1])
    f_step, coeffs, ok, final = step(weights)
    N = np.linalg.qr(A.T, mode="complete")[0][:, A.shape[0] :]
    B = D.matrix.T @ N
    bw = B.T * weights
    f_ref = f0 + N @ cho_solve(cho_factor(bw @ B), -(bw @ c0))
    assert ok and not final
    assert np.linalg.norm(f_step - f_ref) <= 1e-10 * np.linalg.norm(f_ref)
    assert np.linalg.norm(coeffs - D.matrix.T @ f_ref) <= 1e-10 * np.linalg.norm(D.matrix.T @ f_ref)


def _reference_iterates(solver):
    A, D, f = _reference_instance(0)
    y = A @ f
    return A, y, solver(LqProblem(A=A, y=y, D=D, q=0.7))


def test_irls_reference_iterates_are_feasible_to_rounding_error(record_iterates):
    A, y, res = _reference_iterates(irls_analysis)
    assert res.converged
    [iterates] = record_iterates
    for it in iterates:
        assert np.linalg.norm(A @ it - y) <= 1e-12 * np.linalg.norm(y)


def test_irl1_reference_iterates_are_feasible_to_rounding_error(record_iterates):
    A, y, res = _reference_iterates(irl1_analysis)
    [iterates] = record_iterates
    for it in iterates:
        assert np.linalg.norm(A @ it - y) <= 1e-12 * np.linalg.norm(y)


def test_irls_matches_grid_search_on_feasible_line():
    # m = 2, n = 3: the feasible set is a line; brute-force the l_q minimum
    A = np.array([[1.0, 0.3, 0.9], [0.2, 1.0, -0.4]])
    f_true = np.array([0.0, 0.0, 1.5])
    y = A @ f_true
    q = 0.5
    f0, *_ = np.linalg.lstsq(A, y, rcond=None)
    v = np.linalg.svd(A)[2][-1]
    ts = np.linspace(-8.0, 8.0, 400_001)
    obj = (np.abs(f0[None, :] + ts[:, None] * v[None, :]) ** q).sum(axis=1)
    tb = ts[np.argmin(obj)]
    width = ts[1] - ts[0]
    for _ in range(60):
        fine = np.linspace(tb - width, tb + width, 2001)
        objf = (np.abs(f0[None, :] + fine[:, None] * v[None, :]) ** q).sum(axis=1)
        tb = fine[np.argmin(objf)]
        width = fine[1] - fine[0]
    oracle = f0 + tb * v

    res = irls_analysis(LqProblem(A=A, y=y, D=Frame.from_matrix(np.eye(3)), q=q))
    np.testing.assert_allclose(res.f_hat, oracle, atol=1e-6)


def test_irls_reference_configuration_recovers():
    A, D, f = _reference_instance(0)
    res = irls_analysis(LqProblem(A=A, y=A @ f, D=D, q=0.7))
    assert np.linalg.norm(res.f_hat - f) / np.linalg.norm(f) <= 1e-4


def test_irls_surrogate_descent_and_feasibility(record_iterates):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        D = random_tight_frame(20, 24, seed)
        A = rng.standard_normal((14, 20))
        f, _ = cosparse_signal(D, 6, seed + 50)
        y = A @ f
        res = irls_analysis(LqProblem(A=A, y=y, D=D, q=0.7))
        iterates = record_iterates[-1]
        for j in range(res.iterations):
            sj = solvers._sigma_at(j)
            before = _surrogate(D.matrix.T @ iterates[j], sj, 0.7)
            after = _surrogate(D.matrix.T @ iterates[j + 1], sj, 0.7)
            assert after <= before + 1e-10
        assert max(res.residual_trace) <= 1e-8 * np.linalg.norm(y)
        assert len(res.objective_trace) == res.iterations
        assert len(res.residual_trace) == res.iterations


def test_irls_solution_invariant_under_column_permutation():
    rng = np.random.default_rng(7)
    D = random_tight_frame(20, 24, 7)
    A = rng.standard_normal((14, 20))
    f, _ = cosparse_signal(D, 6, 57)
    y = A @ f
    res = irls_analysis(LqProblem(A=A, y=y, D=D, q=0.7))
    perm = rng.permutation(24)
    Dp = Frame(matrix=D.matrix[:, perm], lower_bound=1.0, upper_bound=1.0)
    res_p = irls_analysis(LqProblem(A=A, y=y, D=Dp, q=0.7))
    assert np.linalg.norm(res_p.f_hat - res.f_hat) <= 1e-8


def test_irls_penalty_path_meets_residual_target():
    rng = np.random.default_rng(9)
    D = random_tight_frame(16, 20, 9)
    A = rng.standard_normal((10, 16))
    f, _ = cosparse_signal(D, 5, 99)
    noise = rng.standard_normal(10)
    noise *= 0.01 / np.linalg.norm(noise)
    y = A @ f + noise
    res = irls_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01))
    assert np.linalg.norm(A @ res.f_hat - y) <= 0.01 * (1.0 + 1e-8)
    assert res.converged


def test_irls_penalty_path_sup_norm():
    rng = np.random.default_rng(10)
    D = random_tight_frame(16, 20, 10)
    A = rng.standard_normal((10, 16))
    f, _ = cosparse_signal(D, 5, 100)
    noise = rng.standard_normal(10)
    noise *= 0.005 / np.abs(noise).max()
    y = A @ f + noise
    res = irls_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.005, norm_index=math.inf))
    assert np.abs(A @ res.f_hat - y).max() <= 0.005 * (1.0 + 1e-8)


# ---------------------------------------------------------------------------
# IRL1
# ---------------------------------------------------------------------------

def _l1_vertex_minimum(A, y):
    """Exhaustive basic-solution enumeration of min |f|_1 s.t. A f = y."""
    m, n = A.shape
    best, best_val = None, math.inf
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.zeros(n)
        f[list(cols)] = np.linalg.solve(sub, y)
        val = np.abs(f).sum()
        if val < best_val:
            best, best_val = f, val
    return best


def test_irl1_matches_vertex_enumeration():
    A = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0]])
    f_true = np.array([0.0, 1.5, 0.0])
    y = A @ f_true
    oracle = _l1_vertex_minimum(A, y)
    res = irl1_analysis(
        LqProblem(A=A, y=y, D=Frame.from_matrix(np.eye(3)), q=1.0),
        SolverConfig(max_outer_iters=1),
    )
    np.testing.assert_allclose(res.f_hat, oracle, atol=1e-6)


def test_irl1_uniform_weights_single_outer_is_l1_solution():
    # at q = 1 the first outer step has all weights equal, so one outer
    # iteration already returns the plain l1-analysis solution
    A = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0]])
    y = A @ np.array([0.0, 1.5, 0.0])
    problem = LqProblem(A=A, y=y, D=Frame.from_matrix(np.eye(3)), q=1.0)
    one = irl1_analysis(problem, SolverConfig(max_outer_iters=1))
    full = irl1_analysis(problem)
    np.testing.assert_allclose(one.f_hat, full.f_hat, atol=1e-6)


def test_irl1_identity_measurement_single_iteration():
    D = random_tight_frame(5, 8, 2)
    y = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    res = irl1_analysis(LqProblem(A=np.eye(5), y=y, D=D, q=0.7))
    assert res.iterations == 1
    np.testing.assert_allclose(res.f_hat, y, atol=1e-8)


def test_irl1_reference_configuration_recovers():
    A, D, f = _reference_instance(0)
    res = irl1_analysis(LqProblem(A=A, y=A @ f, D=D, q=0.7))
    assert np.linalg.norm(res.f_hat - f) / np.linalg.norm(f) <= 1e-3


def _irl1_noisy_instance():
    rng = np.random.default_rng(13)
    D = random_tight_frame(16, 20, 13)
    A = rng.standard_normal((10, 16))
    f, _ = cosparse_signal(D, 5, 113)
    noise = rng.standard_normal(10)
    noise *= 0.01 / np.linalg.norm(noise)
    return A, A @ f + noise, D


def test_irl1_penalty_path_meets_residual_target():
    A, y, D = _irl1_noisy_instance()
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01))
    assert np.linalg.norm(A @ res.f_hat - y) <= 0.01 * (1.0 + 1e-8)


def test_irl1_noisy_path_converges():
    A, y, D = _irl1_noisy_instance()
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01))
    assert res.converged


def test_irl1_takes_one_wls_step_per_reweighting(monkeypatch, record_iterates):
    # outer step j is one weighted least-squares step on the atoms w_i d_i,
    # its smoothing s = max(sigma_j^2, 1e-10) in squared coefficient units
    seen = []
    wls_steps = solvers._wls_steps

    def recording(problem):
        *parametrisation, step = wls_steps(problem)

        def recorded(weights):
            seen.append(weights.copy())
            return step(weights)

        return *parametrisation, recorded

    monkeypatch.setattr(solvers, "_wls_steps", recording)
    A, y, D = _irl1_noisy_instance()
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01))
    [iterates] = record_iterates
    assert len(seen) == res.iterations
    for j, weights in enumerate(seen):
        c = D.matrix.T @ iterates[j]
        sigma = solvers._sigma_at(j)
        w = (np.abs(c) + sigma) ** (0.7 - 1.0)
        w /= np.mean(w)
        np.testing.assert_allclose(weights, w * w / np.sqrt((w * c) ** 2 + max(sigma**2, 1e-10)), rtol=1e-12)


def test_irl1_stopped_at_the_cap_is_not_converged():
    A, D, f = _reference_instance(0)
    res = irl1_analysis(LqProblem(A=A, y=A @ f, D=D, q=0.7), SolverConfig(max_outer_iters=5))
    assert res.iterations == 5
    assert res.converged is False


def test_irl1_noisy_objective_no_worse_than_cold_inner_runs():
    # 2.3316441821851583 is the objective reached with cold inner runs, from
    # f0 at smoothing 1; warm ones must not end higher
    A, y, D = _irl1_noisy_instance()
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01))
    assert objective(res.f_hat, D, 0.7) <= 2.3316441821851583 * (1.0 + 1e-9)
    assert np.linalg.norm(A @ res.f_hat - y) <= 0.01 * (1.0 + 1e-8)


def test_irl1_recovers_reference_instance_13():
    # the outer loop must run until sigma reaches sigma_min: once the steps
    # land on exact vertices they stop moving while sigma is still large
    A, D, f = _reference_instance(13)
    res = irl1_analysis(LqProblem(A=A, y=A @ f, D=D, q=0.7))
    assert res.converged
    assert np.linalg.norm(res.f_hat - f) / np.linalg.norm(f) <= 1e-3


@pytest.mark.parametrize("seed", [28, 38, 57])
def test_irl1_recovers_hard_reference_instances(seed):
    # exact weighted-l1 steps recover these; one least-squares step per
    # reweighting, followed by a single vertex move, ends 0.15-0.32 away
    A, D, f = _reference_instance(seed)
    res = irl1_analysis(LqProblem(A=A, y=A @ f, D=D, q=0.7))
    assert res.converged
    assert np.linalg.norm(res.f_hat - f) / np.linalg.norm(f) <= 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_l1_vertex_reaches_the_weighted_l1_minimum(seed):
    # min sum_i w_i |<d_i, f>| s.t. A f = y is attained at a vertex, where
    # n - m atoms vanish; the descent from any vertex must reach the best
    rng = np.random.default_rng(seed)
    A, Dm, w = rng.standard_normal((3, 6)), rng.standard_normal((6, 9)), rng.uniform(0.1, 2.0, 9)
    y = A @ rng.standard_normal(6)
    best = math.inf
    for Z in itertools.combinations(range(9), 3):
        M = np.vstack([A, Dm[:, Z].T])
        if abs(np.linalg.det(M)) > 1e-9:
            best = min(best, w @ np.abs(Dm.T @ np.linalg.solve(M, np.concatenate([y, np.zeros(3)]))))
    f0, c0, N, B, _ = solvers._wls_steps(LqProblem(A=A, y=y, D=Frame.from_matrix(Dm), q=1.0))
    z, Z = solvers._l1_vertex(B, c0, w, np.array([0, 1, 2]))
    f = f0 + N @ z
    np.testing.assert_allclose(c0[Z] + B[Z] @ z, 0.0, atol=1e-12 * np.abs(c0).max())
    c = Dm.T @ f
    assert np.linalg.norm(A @ f - y) <= 1e-12 * np.linalg.norm(y)
    assert w @ np.abs(c) == pytest.approx(best, rel=1e-10)


def _repeated_atoms_instance(seed):
    # a basis with its first `dup` atoms repeated; duplicate analysis rows make
    # some vertex systems exactly singular
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 7)
    m, dup = rng.integers(1, n), rng.integers(1, n + 1)
    base = np.linalg.qr(rng.standard_normal((n, n)))[0] if seed % 2 else np.eye(n)
    D = Frame.from_matrix(np.hstack([base, base[:, :dup]]))
    A = rng.standard_normal((m, n))
    f = rng.standard_normal(n) * (rng.random(n) < 0.5)
    return A, A @ f, D


@pytest.mark.parametrize("seed", [15, 43, 45, 53, 67, 71, 73, 75, 83, 95, 99, 109, 111, 124, 127, 151, 155, 157, 169])
def test_irl1_with_repeated_atoms_returns_a_feasible_point(seed):
    # the start set holds one copy of a repeated atom at most, and every pivot
    # keeps the vertex system nonsingular, so each step is a vertex step
    A, y, D = _repeated_atoms_instance(seed)
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7))
    assert res.converged
    assert np.all(np.isfinite(res.f_hat))
    assert np.linalg.norm(A @ res.f_hat - y) <= 1e-10


def _doubled_identity_problem(q):
    A = np.random.default_rng(0).standard_normal((2, 4))
    y = A @ np.array([1.0, 0.0, 0.0, -2.0])
    return LqProblem(A=A, y=y, D=Frame.from_matrix(np.hstack([np.eye(4), np.eye(4)])), q=q)


@pytest.mark.parametrize("q", [0.7, 1.0])
def test_irl1_takes_a_vertex_step_at_every_outer_step_on_doubled_atoms(monkeypatch, q):
    # with D = [I | I] the smallest coefficients come in equal pairs; the start
    # set keeps one atom of each pair, so every outer step is a vertex descent
    calls = {"vertex": 0, "wls": 0}
    l1_vertex, wls_steps = solvers._l1_vertex, solvers._wls_steps

    def vertex(*args):
        calls["vertex"] += 1
        return l1_vertex(*args)

    def steps(problem):
        *parametrisation, step = wls_steps(problem)

        def counted(weights):
            calls["wls"] += 1
            return step(weights)

        return *parametrisation, counted

    monkeypatch.setattr(solvers, "_l1_vertex", vertex)
    monkeypatch.setattr(solvers, "_wls_steps", steps)
    problem = _doubled_identity_problem(q)
    res = irl1_analysis(problem)
    assert calls == {"vertex": res.iterations, "wls": 0}
    assert res.converged
    assert np.linalg.norm(problem.A @ res.f_hat - problem.y) <= 1e-12 * np.linalg.norm(problem.y)
    if q == 1.0:
        # |D^T f|_1 = 2 |f|_1, so the minimum is twice the basis-pursuit one
        assert res.iterations == 2
        best = 2.0 * np.abs(_l1_vertex_minimum(problem.A, problem.y)).sum()
        assert res.objective_trace[-1] == pytest.approx(best, rel=1e-12, abs=0.0)


def _irl1_without_early_exit(monkeypatch):
    # every step reports that it depended on sigma, so only the floor stops the loop
    reweight = solvers._reweight

    def without(problem, config, f, coeffs, step):
        return reweight(problem, config, f, coeffs, lambda c, sigma: (*step(c, sigma)[:3], False))

    monkeypatch.setattr(solvers, "_reweight", without)


def _reference_problem(q, seed=0):
    A, D, f = _reference_instance(seed)
    return LqProblem(A=A, y=A @ f, D=D, q=q)


@pytest.mark.parametrize(
    "problem",
    [
        lambda: _reference_problem(0.5),
        lambda: _reference_problem(0.7),
        lambda: _reference_problem(0.99),
        lambda: LqProblem(*_irl1_noisy_instance(), q=1.0, epsilon=0.01),
    ],
    ids=["q0.5", "q0.7", "q0.99", "q1-noisy"],
)
def test_irl1_early_exit_leaves_other_runs_bit_identical(monkeypatch, problem):
    # the exit applies only to vertex steps at q = 1, which ignore sigma
    problem = problem()
    early = irl1_analysis(problem)
    _irl1_without_early_exit(monkeypatch)
    full = irl1_analysis(problem)
    assert early.iterations == full.iterations > 2
    assert early.objective_trace == full.objective_trace
    assert early.converged == full.converged
    np.testing.assert_array_equal(early.f_hat, full.f_hat)


@pytest.mark.parametrize(
    "problem",
    [lambda: _reference_problem(1.0), lambda: _reference_problem(1.0, seed=5), lambda: _doubled_identity_problem(1.0)],
    ids=["0", "5", "doubled-identity"],
)
def test_irl1_at_q1_stops_once_the_vertex_step_settles(monkeypatch, problem):
    # at q = 1 every weight is 1, so the second vertex step repeats the first
    problem = problem()
    early = irl1_analysis(problem)
    _irl1_without_early_exit(monkeypatch)
    full = irl1_analysis(problem)
    assert early.converged and full.converged
    assert early.iterations == 2 < full.iterations
    assert objective(early.f_hat, problem.D, 1.0) == pytest.approx(
        objective(full.f_hat, problem.D, 1.0), rel=1e-12, abs=0.0
    )


def _degenerate_atoms_problem(seed):
    # five families, by seed % 5: general position, a zero atom, a duplicated
    # atom, a block of repeated atoms, and a doubled basis with two negated
    # atoms; None where Frame.from_matrix refuses D
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 10)
    m = rng.integers(1, n + 1)
    family = seed % 5
    if family < 2:
        D = rng.standard_normal((n, n + rng.integers(0, 6)))
        if family == 1:
            D[:, rng.integers(D.shape[1])] = 0.0
    elif family == 2:
        D = rng.standard_normal((n, n + rng.integers(1, 6)))
        i, j = rng.choice(D.shape[1], 2, replace=False)
        D[:, j] = D[:, i]
    elif family == 3:
        base = rng.standard_normal((n, n + rng.integers(0, 3)))
        D = np.hstack([base, base[:, : rng.integers(1, base.shape[1] + 1)]])
    else:
        base = np.eye(n) if seed % 2 else np.linalg.qr(rng.standard_normal((n, n)))[0]
        D = np.hstack([base, base, -base[:, :2]])
    try:
        frame = Frame.from_matrix(D)
    except lqframes.LqframesError:
        return None
    A = rng.standard_normal((m, n))
    y = A @ (rng.standard_normal(n) * (rng.random(n) < 0.5))
    return LqProblem(A=A, y=y, D=frame, q=float(rng.choice([0.3, 0.5, 0.7, 0.9, 1.0])))


@pytest.mark.parametrize("seeds", [range(200), [2378]], ids=["0-199", "2378"])
def test_irl1_on_degenerate_atoms_converges_to_a_feasible_point(seeds):
    # zero, duplicated and repeated atoms leave every vertex system nonsingular
    for seed in seeds:
        problem = _degenerate_atoms_problem(seed)
        if problem is None:
            continue
        res = irl1_analysis(problem)
        assert np.all(np.isfinite(res.f_hat)), seed
        assert np.linalg.norm(problem.A @ res.f_hat - problem.y) <= 1e-8 * np.linalg.norm(problem.y), seed
        assert res.converged, seed


def _lp_reference_problem(seed, family):
    # a q = 1 problem with m < n whose D is Gaussian (family 0) or has one zero
    # atom (family 1); None where the recipe draws none
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 9)
    d, m = n + rng.integers(0, 6), rng.integers(1, n + 1)
    D = rng.standard_normal((n, d))
    if family == 1:
        D[:, rng.integers(d)] = 0.0
    try:
        frame = Frame.from_matrix(D)
    except lqframes.LqframesError:
        return None
    A = rng.standard_normal((m, n))
    return LqProblem(A=A, y=A @ rng.standard_normal(n), D=frame, q=1.0) if m < n else None


def _l1_analysis_lp_minimum(problem):
    # min sum_i t_i over (f, t) with -t <= D^T f <= t and A f = y
    from scipy.optimize import linprog

    (m, n), d = problem.A.shape, problem.D.matrix.shape[1]
    Dt, eye = problem.D.matrix.T, np.eye(d)
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(d)]),
        A_ub=np.block([[Dt, -eye], [-Dt, -eye]]),
        b_ub=np.zeros(2 * d),
        A_eq=np.hstack([problem.A, np.zeros((m, d))]),
        b_eq=problem.y,
        bounds=[(None, None)] * (n + d),
        method="highs",
    )
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("family", [0, 1], ids=["general-position", "zero-atom"])
def test_irl1_at_q1_reaches_the_l1_analysis_lp_minimum(family):
    checked = 0
    for seed in range(family, 1500, 3):
        problem = _lp_reference_problem(seed, family)
        if problem is None or seed % 7:
            continue
        best = _l1_analysis_lp_minimum(problem)
        assert irl1_analysis(problem).objective_trace[-1] <= best * (1.0 + 1e-7), seed
        checked += 1
    assert checked == 51


# ---------------------------------------------------------------------------
# the shared reweighting driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", [irls_analysis, irl1_analysis])
@pytest.mark.parametrize("epsilon, norm_index", [(0.0, 2.0), (0.01, 2.0), (0.01, math.inf)])
def test_traces_describe_the_kept_iterates(solver, epsilon, norm_index, record_iterates):
    rng = np.random.default_rng(21)
    D = random_tight_frame(12, 15, 21)
    A = rng.standard_normal((6, 12))
    f, _ = cosparse_signal(D, 5, 121)
    noise = rng.standard_normal(6)
    noise *= epsilon / np.linalg.norm(noise, ord=norm_index)
    problem = LqProblem(A=A, y=A @ f + noise, D=D, q=0.7, epsilon=epsilon, norm_index=norm_index)
    res = solver(problem, SolverConfig(max_outer_iters=10))
    [iterates] = record_iterates
    assert len(iterates) == res.iterations + 1
    assert len(res.objective_trace) == len(res.residual_trace) == res.iterations
    for j, f_j in enumerate(iterates[1:]):
        assert res.objective_trace[j] == pytest.approx(objective(f_j, D, 0.7), rel=1e-12)
        resid = np.linalg.norm(A @ f_j - problem.y, ord=norm_index)
        assert res.residual_trace[j] == pytest.approx(resid, rel=1e-12)
    np.testing.assert_array_equal(res.f_hat, iterates[-1])


# ---------------------------------------------------------------------------
# the exact noisy steps
# ---------------------------------------------------------------------------

def _explicit_q_step(problem, weights):
    """The noisy step through an explicit Q, the reference for the R-only step.

    An explicit Q of W^(1/2) B splits W^(1/2) [P c0] into C = Q^T X and the
    part [H h] = X - Q C that z cannot reach; then v solves the ball or box
    problem from a cold start and z solves R z = -(C_P v + C_c).
    """
    A, y, Dm, eps = problem.A, problem.y, problem.D.matrix, problem.epsilon
    m = A.shape[0]
    U, s, Vt = np.linalg.svd(A)
    pinv = (Vt[:m].T / s) @ U.T
    f0, N = pinv @ y, Vt[m:].T
    root = np.sqrt(weights)[:, None]
    Qb, Rb = np.linalg.qr(root * (Dm.T @ N))
    X = root * np.column_stack([Dm.T @ pinv, Dm.T @ f0])
    C = Qb.T @ X
    X -= Qb @ C
    if problem.norm_index == math.inf:
        v, ok = _box_step(X[:, :-1], X[:, -1], eps, np.zeros(m))
        assert ok
    else:
        v = _ball_step(X[:, :-1], X[:, -1], eps)[0]
    return f0 + pinv @ v + N @ np.linalg.solve(Rb, -(C[:, :-1] @ v + C[:, -1]))


@pytest.mark.parametrize("norm_index", [2.0, math.inf])
@pytest.mark.parametrize("instance", ["small", "reference"])
def test_noisy_step_matches_the_explicit_q_step(instance, norm_index):
    # one R factor of W^(1/2) [B P c0] holds what the explicit Q and its two
    # projections computed; the step runs warm, the reference cold
    if instance == "small":
        A, y, D = _irl1_noisy_instance()
    else:
        A, D, f = _reference_instance(1)
        y = A @ f + 0.01 * np.random.default_rng(1).standard_normal(A.shape[0]) / math.sqrt(A.shape[0])
    problem = LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01, norm_index=norm_index)
    *_, step = solvers._wls_steps(problem)
    rng = np.random.default_rng(2)
    for _ in range(4):
        weights = 10.0 ** rng.uniform(-2.0, 4.0, D.matrix.shape[1])
        f, coeffs, ok, final = step(weights)
        f_ref = _explicit_q_step(problem, weights)
        assert ok and not final
        assert np.linalg.norm(f - f_ref) <= 1e-10 * np.linalg.norm(f_ref)
        c_ref = D.matrix.T @ f_ref
        assert np.linalg.norm(coeffs - c_ref) <= 1e-10 * np.linalg.norm(c_ref)


def _hard_noisy_instance(seed):
    # duplicated atoms scaled by 10^U(-3, 3); at seed 3 mod 4 with m > 1 a
    # repeated row of A, which every solve must refuse
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m, dup = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
    Dm = rng.standard_normal((n, n))
    Dm = np.hstack([Dm, Dm[:, :dup]]) * 10.0 ** rng.uniform(-3.0, 3.0, n + dup)
    A = rng.standard_normal((m, n))
    if seed % 4 == 3 and m > 1:
        A[-1] = A[0]
    y = A @ (rng.standard_normal(n) * (rng.random(n) < 0.5)) + 0.1 * rng.standard_normal(m)
    return A, y, Frame.from_matrix(Dm), float(10.0 ** rng.uniform(-3.0, 0.0))


@pytest.mark.parametrize("seed", range(8))
def test_noisy_solves_on_hard_atoms_return_a_feasible_point_or_refuse(seed):
    A, y, D, eps = _hard_noisy_instance(seed)
    for norm_index in (2.0, math.inf):
        problem = LqProblem(A=A, y=y, D=D, q=0.5, epsilon=eps, norm_index=norm_index)
        for solver in (irls_analysis, irl1_analysis):
            try:
                res = solver(problem, SolverConfig(max_outer_iters=100))
            except lqframes.LqframesError:
                continue
            assert np.all(np.isfinite(res.f_hat))
            assert np.linalg.norm(A @ res.f_hat - y, ord=norm_index) <= eps * (1.0 + 1e-8)


def _step_instance(seed, d=30, m=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, m)) * rng.uniform(0.1, 10.0, m), rng.standard_normal(d)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("radius", [1e-3, 0.1, 1e3])
def test_ball_step_meets_its_kkt_conditions(seed, radius):
    H, h = _step_instance(seed)
    inside = np.linalg.norm(np.linalg.lstsq(H, -h, rcond=None)[0]) <= radius
    root = _ball_step(H, h, radius)[1]
    # Newton's method starts from the given multiplier: cold, below the
    # root, above it, and far above it (an interior solution at radius 1e3)
    for start in (0.0, 0.5 * root, 2.0 * root + 1.0, 1e6):
        v, mu = _ball_step(H, h, radius, start)
        assert mu >= 0.0
        assert np.linalg.norm(v) <= radius * (1.0 + 1e-12)
        lhs = H.T @ (H @ v) + mu * v
        assert np.linalg.norm(lhs + H.T @ h) <= 1e-10 * np.linalg.norm(H.T @ h)
        if inside:
            assert mu == 0.0
        else:
            assert np.linalg.norm(v) == pytest.approx(radius, rel=1e-12)


def test_ball_step_with_h_orthogonal_to_the_range_returns_zero():
    # H^T h = 0: v = 0 is the minimiser, and a warm multiplier must not
    # turn the Newton step into 0/0
    rng = np.random.default_rng(7)
    H = np.vstack([rng.standard_normal((8, 8)), np.zeros((22, 8))])
    h = np.concatenate([np.zeros(8), rng.standard_normal(22)])
    v, mu = _ball_step(H, h, 0.1, 5.0)
    assert np.all(np.isfinite(v)) and not v.any()
    assert mu == 0.0


def _assert_box_optimal(H, h, radius, v):
    # projected-gradient optimality: interior components have zero gradient,
    # a component at +radius a gradient <= 0 and one at -radius >= 0
    grad = H.T @ (H @ v + h)
    tol = 1e-10 * np.linalg.norm(H, axis=0) * np.linalg.norm(H @ v + h)
    assert np.all(np.abs(v) <= radius)
    interior = np.abs(v) < radius
    assert np.all(np.abs(grad[interior]) <= tol[interior])
    assert np.all(np.sign(v[~interior]) * grad[~interior] <= tol[~interior])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("radius", [1e-3, 0.1, 1e3])
def test_box_step_is_optimal_cold_and_warm(seed, radius):
    H, h = _step_instance(seed)
    cold, ok = _box_step(H, h, radius, np.zeros(H.shape[1]))
    assert ok
    _assert_box_optimal(H, h, radius, cold)
    # warm starts: a random point of the box, and the optimum of a nearby problem
    rng = np.random.default_rng(100 + seed)
    for start in (rng.uniform(-radius, radius, H.shape[1]), cold):
        h_near = h + 0.1 * rng.standard_normal(h.size)
        warm, ok = _box_step(H, h_near, radius, start)
        assert ok
        _assert_box_optimal(H, h_near, radius, warm)


def test_no_module_imports_scipy_optimize():
    # importing scipy.optimize costs about 20 MB of resident memory and a
    # quarter second of start-up, which every CLI call would pay
    script = """
import math, sys
import numpy as np
import lqframes, lqframes.cli
rng = np.random.default_rng(0)
D = lqframes.random_tight_frame(12, 15, 0)
A = rng.standard_normal((6, 12))
y = A @ lqframes.cosparse_signal(D, 5, 1)[0] + 0.01
config = lqframes.SolverConfig(max_outer_iters=3)
for norm_index in (2.0, math.inf):
    problem = lqframes.LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01, norm_index=norm_index)
    lqframes.irls_analysis(problem, config)
    lqframes.irl1_analysis(problem, config)
print("scipy.optimize" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lqframes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
