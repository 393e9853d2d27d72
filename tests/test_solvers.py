import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lqframes
from lqframes import (
    Frame,
    IllConditionedError,
    InfeasibleOrDegenerateError,
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
from lqframes.solvers import _ball_step, _box_step, _spd_solve_factor


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


@pytest.mark.parametrize("field, value", [("max_outer_iters", 0)])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(InvalidParametersError, match=field):
        SolverConfig(**{field: value})


def test_spd_factor_failure_is_an_lqframes_error():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditionedError, match="not numerically positive definite"):
        _spd_solve_factor(indefinite)


def test_solver_rejects_row_rank_deficient():
    D = Frame.from_matrix(np.eye(3))
    A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleOrDegenerateError):
        irls_analysis(LqProblem(A=A, y=np.zeros(2), D=D, q=0.5))


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


def test_irls_step_is_the_weighted_least_squares_kkt_solution():
    # each iterate solves min sum_i w_i <d_i, f>^2 s.t. A f = y with the
    # weights of the previous iterate; compare with the full KKT system
    rng = np.random.default_rng(4)
    n, d, m, q = 12, 15, 6, 0.5
    D = random_tight_frame(n, d, 4)
    A = rng.standard_normal((m, n))
    f, _ = cosparse_signal(D, 5, 44)
    y = A @ f
    config = SolverConfig(keep_iterates=True)
    res = irls_analysis(LqProblem(A=A, y=y, D=D, q=q), config)
    assert res.iterations >= 5
    Dm = D.matrix
    for j in range(res.iterations):
        coeffs = Dm.T @ res.iterates[j]
        weights = (coeffs * coeffs + solvers._sigma_at(j)) ** (q / 2.0 - 1.0)
        kkt = np.block([[2.0 * (Dm * weights) @ Dm.T, A.T], [A, np.zeros((m, m))]])
        expected = np.linalg.solve(kkt, np.concatenate([np.zeros(n), y]))[:n]
        np.testing.assert_allclose(res.iterates[j + 1], expected, rtol=1e-9)


def _reference_iterates(solver):
    A, D, f = _reference_instance(0)
    y = A @ f
    return A, y, solver(LqProblem(A=A, y=y, D=D, q=0.7), SolverConfig(keep_iterates=True))


def test_irls_reference_iterates_are_feasible_to_rounding_error():
    A, y, res = _reference_iterates(irls_analysis)
    assert res.converged
    for it in res.iterates:
        assert np.linalg.norm(A @ it - y) <= 1e-12 * np.linalg.norm(y)


def test_irl1_reference_iterates_are_feasible_to_rounding_error():
    A, y, res = _reference_iterates(irl1_analysis)
    for it in res.iterates:
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


def test_irls_surrogate_descent_and_feasibility():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        D = random_tight_frame(20, 24, seed)
        A = rng.standard_normal((14, 20))
        f, _ = cosparse_signal(D, 6, seed + 50)
        y = A @ f
        config = SolverConfig(keep_iterates=True)
        res = irls_analysis(LqProblem(A=A, y=y, D=D, q=0.7), config)
        for j in range(res.iterations):
            sj = solvers._sigma_at(j)
            before = _surrogate(D.matrix.T @ res.iterates[j], sj, 0.7)
            after = _surrogate(D.matrix.T @ res.iterates[j + 1], sj, 0.7)
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


def test_irl1_inner_runs_start_at_the_outer_iterate(monkeypatch):
    # each inner IRLS run starts at the outer iterate, with its smoothing at
    # sigma_j^2: sqrt((w c)^2 + s) is in squared coefficient units
    calls = []
    reweight = solvers._reweight

    def recording(problem, config, f, coeffs, step, sigma0=1.0, **kwargs):
        call = {"sigma0": sigma0, "f": f.copy()}
        calls.append(call)
        call["result"] = reweight(problem, config, f, coeffs, step, sigma0, **kwargs)
        return call["result"]

    monkeypatch.setattr(solvers, "_reweight", recording)
    A, y, D = _irl1_noisy_instance()
    config = SolverConfig(keep_iterates=True)
    res = irl1_analysis(LqProblem(A=A, y=y, D=D, q=0.7, epsilon=0.01), config)
    outer, inner = calls[0], calls[1:]
    assert outer["result"] is res
    assert len(inner) == res.iterations
    for j, call in enumerate(inner):
        assert np.array_equal(call["f"], res.iterates[j])
        assert call["sigma0"] == max(solvers._sigma_at(j) ** 2, solvers._SIGMA_MIN)
    # cold inner runs, from f0 at sigma0 = 1, took 9674 steps here
    assert sum(call["result"].iterations for call in inner) <= 6000


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


# ---------------------------------------------------------------------------
# the shared reweighting driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solver", [irls_analysis, irl1_analysis])
@pytest.mark.parametrize("epsilon, norm_index", [(0.0, 2.0), (0.01, 2.0), (0.01, math.inf)])
def test_traces_describe_the_kept_iterates(solver, epsilon, norm_index):
    rng = np.random.default_rng(21)
    D = random_tight_frame(12, 15, 21)
    A = rng.standard_normal((6, 12))
    f, _ = cosparse_signal(D, 5, 121)
    noise = rng.standard_normal(6)
    noise *= epsilon / np.linalg.norm(noise, ord=norm_index)
    problem = LqProblem(A=A, y=A @ f + noise, D=D, q=0.7, epsilon=epsilon, norm_index=norm_index)
    res = solver(problem, SolverConfig(max_outer_iters=10, keep_iterates=True))
    assert len(res.iterates) == res.iterations + 1
    assert len(res.objective_trace) == len(res.residual_trace) == res.iterations
    for j, f_j in enumerate(res.iterates[1:]):
        assert res.objective_trace[j] == pytest.approx(objective(f_j, D, 0.7), rel=1e-12)
        resid = np.linalg.norm(A @ f_j - problem.y, ord=norm_index)
        assert res.residual_trace[j] == pytest.approx(resid, rel=1e-12)
    np.testing.assert_array_equal(res.f_hat, res.iterates[-1])


# ---------------------------------------------------------------------------
# the exact noisy steps
# ---------------------------------------------------------------------------

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
