"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single [ACCEPTANCE] pass/fail line before asserting, so
`pytest -v -s tests/test_acceptance.py` gives one line per criterion.

Where the expected values come from:
  * the tail constant beta_q = (31/40)^(1/4) [1.13 + sqrt(q) (Gamma((q+1)/2)
    / sqrt(pi))^(-1/q)] is checked against closed forms that do not go
    through the program's log-gamma evaluation: at q = 1 the bracket is
    1.13 + sqrt(pi); as q -> 0, (Gamma((q+1)/2)/sqrt(pi))^(-1/q) tends to
    2 exp(gamma/2), where gamma is Euler's constant (this follows from
    psi(1/2) = -gamma - 2 ln 2), with a remainder of order q^(3/2) in beta_q;
  * the desk-scale phase-transition cell must be feasible: a generic n x d
    tight frame admits exactly s-sparse analysis coefficients only when
    s > d - n (an l-cosparse vector needs l < n for a frame in general
    position), so the cell (n=64, d=70, s=8) is asserted to meet that rule
    before the sweep runs.
"""

import math
import time

import numpy as np

import lqframes as lq
from lqframes.experiments import _recovery_trial, cell_key
from lqframes.separation import split_nsp_condition, split_nsp_constant


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _surrogate(c, sigma, q):
    """sum_i (c_i^2 + sigma)^(q/2), the smoothed objective IRLS descends."""
    return float(np.sum((c * c + sigma) ** (q / 2.0)))


def test_figure1_reproduction():
    params = {"n": 100, "d": 110, "m": 50, "q": 0.7, "s": 25}
    ck = cell_key(params)
    successes = 0
    slowest = 0.0
    for t in range(20):
        start = time.perf_counter()
        rel, _ = _recovery_trial(100, 110, 50, 0.7, 25, lq.trial_seed(0, ck, t))
        slowest = max(slowest, time.perf_counter() - start)
        successes += rel <= 1e-4
    cell = lq.run_figure1(master_seed=0, trials=20, threshold=1e-4)
    _report(
        "figure1: rel err <= 1e-4 in >= 18/20 trials, each < 10 s",
        successes >= 18 and slowest < 10.0 and cell.success_rate == successes / 20.0,
        f"successes={successes}/20 slowest={slowest:.2f}s",
    )


def test_tail_constant_reported_decimals():
    scale = (31.0 / 40.0) ** 0.25
    q_small = 1e-6
    want1 = scale * (1.13 + math.sqrt(math.pi))
    want0 = scale * (1.13 + math.sqrt(q_small) * 2.0 * math.exp(np.euler_gamma / 2.0))
    b1 = lq.tail_constant(1.0)
    b0 = lq.tail_constant(q_small)
    _report(
        f"tail constant: beta(1) = {want1:.4f} +- 1e-3 and beta(1e-6) = {want0:.4f} +- 1e-3",
        abs(b1 - want1) <= 1e-3 and abs(b0 - want0) <= 1e-3,
        f"beta(1)={b1:.6f} beta(1e-6)={b0:.6f}",
    )


def test_moment_matches_monte_carlo():
    rng = np.random.default_rng(2024)
    g = rng.standard_normal(10**6)
    worst = 0.0
    for q in (0.25, 0.5, 0.7, 1.0):
        samples = np.abs(g) ** q
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        worst = max(worst, abs(samples.mean() - lq.gaussian_moment(q, 1.0)) / se)
    _report(
        "gaussian moment within 3 standard errors of 1e6-draw Monte Carlo",
        worst <= 3.0,
        f"worst deviation {worst:.2f} SE",
    )


def test_exact_rip_oracle_on_identity():
    I = np.eye(6)
    worst = 0.0
    for s in (1, 2, 3):
        rep = lq.estimate_rip(I, I, 1.0, s, mode="exhaustive", budget=8, seed=0)
        worst = max(worst, abs(rep.delta - (math.sqrt(s) - 1.0)))
    _report(
        "exhaustive identity RIP equals sqrt(s) - 1 within 1e-6 for s in {1,2,3}",
        worst <= 1e-6,
        f"worst gap {worst:.2e}",
    )


def test_condition_equivalences_on_random_grids():
    rng = np.random.default_rng(314)
    ok = True
    for _ in range(100):
        q = rng.uniform(0.05, 1.0)
        a = int(rng.integers(2, 60))
        s = int(rng.integers(1, a))
        kappa = 1.0 + rng.exponential(1.0)
        v = lq.check_recovery_condition(rng.uniform(0, 0.99), rng.uniform(0, 0.99), s, a, kappa, q)
        ok = ok and ((v.theta < 1.0) == v.holds)
    for _ in range(100):
        q = rng.uniform(0.05, 1.0)
        a = int(rng.integers(2, 60))
        s = int(rng.integers(1, a))
        iota = int(rng.integers(1, 5))
        delta_ratio = 1.0 + rng.exponential(0.5)
        U = rng.uniform(0.0, 0.999)
        tt = split_nsp_constant(s / a, delta_ratio, U, q, iota)
        ok = ok and ((tt < 1.0) == split_nsp_condition(s / a, delta_ratio, U, q, iota))
    _report(
        "theta < 1 iff recovery condition; theta_tilde < 1 iff joint condition (100-point grids)",
        ok,
    )


def test_measurement_bound_log_term_vanishes():
    s, d = 25, 110
    table = lq.run_bounds_table([1e-3, 0.1, 0.5, 1.0], s, d, kappa=1.0)
    ok = all(row["m_min"] > 0 for row in table)
    slopes = []
    for q in (1.0, 0.5, 0.1, 1e-3):
        m1 = lq.measurement_bound(q, s, 1000, 1.0)
        m2 = lq.measurement_bound(q, s, 2000, 1.0)
        slopes.append((m2 - m1) / math.log(2.0))
    ok = ok and all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))
    ok = ok and slopes[-1] <= 1e-2 * slopes[0]
    _report(
        "log(d/s) coefficient of the measurement bound vanishes as q -> 0",
        ok,
        f"slopes q=1..1e-3: {[f'{sl:.3g}' for sl in slopes]}",
    )


def test_fewer_measurements_at_smaller_q_desk_scale():
    n, d, s = 64, 70, 8
    assert s > d - n, f"exact {s}-sparse analysis vectors need s > d - n = {d - n}"
    m_grid = (16, 32, 48)
    minimal = {}
    for q in (0.5, 1.0):
        grid = [{"n": n, "d": d, "m": m, "q": q, "s": s} for m in m_grid]
        spec = lq.ExperimentSpec(
            kind="phase_transition", grid=grid, trials_per_cell=20, success_threshold=1e-4, master_seed=0
        )
        results = lq.run_phase_transition(spec)
        reached = [r.params["m"] for r in results if r.success_rate >= 0.9]
        minimal[q] = min(reached) if reached else None
    ok = minimal[0.5] is not None and minimal[1.0] is not None and minimal[0.5] <= minimal[1.0]
    _report(
        f"phase transition (n={n}, d={d}, s={s}): minimal m at 90% for q=0.5 <= q=1.0",
        ok,
        f"minimal m: q=0.5 -> {minimal[0.5]}, q=1.0 -> {minimal[1.0]} (s > d - n = {d - n})",
    )


def test_separation_desk_experiment():
    spec = lq.ExperimentSpec(
        kind="separation_sweep",
        grid=[{"n": 32, "s1": 2, "s2": 2, "m": 24, "q": 0.7}],
        trials_per_cell=20,
        success_threshold=1e-3,
        master_seed=0,
    )
    (cell,) = lq.run_separation_sweep(spec)

    # single-dictionary delegation must be bit-identical to the plain solver
    spikes = lq.Frame(matrix=np.eye(16), lower_bound=1.0, upper_bound=1.0)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 16))
    f, _ = lq.cosparse_signal(spikes, 2, 2)
    problem = lq.SeparationProblem(dicts=[spikes], A=A, y=A @ f, q=0.7)
    (comp,), stacked = lq.solve_split_analysis(problem)
    plain = lq.irls_analysis(lq.LqProblem(A=A, y=A @ f, D=spikes, q=0.7))
    delegation_ok = (
        stacked.objective_trace == plain.objective_trace and np.array_equal(comp, plain.f_hat)
    )
    _report(
        "separation desk test: joint recovery >= 18/20 at 1e-3; iota=1 delegation identical",
        cell.success_rate >= 18 / 20 and delegation_ok,
        f"success_rate={cell.success_rate:.2f} delegation={'ok' if delegation_ok else 'mismatch'}",
    )


def test_invariant_suites_over_seeds():
    worst_energy = 0.0
    worst_isometry = 0.0
    worst_descent = 0.0
    worst_feasibility = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)

        # frame-bound sampling
        frame = lq.Frame.from_matrix(rng.standard_normal((12, 17)))
        unit = rng.standard_normal((12, 1000))
        unit /= np.linalg.norm(unit, axis=0)
        energy = np.sum((frame.matrix.T @ unit) ** 2, axis=0)
        worst_energy = max(
            worst_energy, frame.lower_bound - energy.min(), energy.max() - frame.upper_bound
        )

        # stacked-dictionary isometry for tight blocks
        blocks = [lq.random_tight_frame(16, 20, 2 * seed + k) for k in range(2)]
        _, psi, _ = lq.build_stacked(blocks)
        for _ in range(100):
            vec = rng.standard_normal(32)
            worst_isometry = max(
                worst_isometry, abs(np.linalg.norm(psi.T @ vec) - np.linalg.norm(vec))
            )

        # IRLS surrogate descent and iterate feasibility
        D = lq.random_tight_frame(20, 24, seed)
        A = rng.standard_normal((14, 20))
        f, _ = lq.cosparse_signal(D, 6, seed + 1000)
        y = A @ f
        config = lq.SolverConfig(keep_iterates=True)
        res = lq.irls_analysis(lq.LqProblem(A=A, y=y, D=D, q=0.7), config)
        for j in range(res.iterations):
            sj = lq.solvers._sigma_at(j)
            before = _surrogate(D.matrix.T @ res.iterates[j], sj, 0.7)
            after = _surrogate(D.matrix.T @ res.iterates[j + 1], sj, 0.7)
            worst_descent = max(worst_descent, after - before)
        worst_feasibility = max(worst_feasibility, max(res.residual_trace) / np.linalg.norm(y))
    ok = (
        worst_energy <= 1e-9
        and worst_isometry <= 1e-10
        and worst_descent <= 1e-10
        and worst_feasibility <= 1e-8
    )
    _report(
        "invariants over 50 seeds: frame-bound sampling, stacked isometry 1e-10, "
        "surrogate non-increase 1e-10, iterate feasibility 1e-8",
        ok,
        f"energy={worst_energy:.1e} isometry={worst_isometry:.1e} "
        f"descent={worst_descent:.1e} feasibility={worst_feasibility:.1e}",
    )


def test_recovery_error_bound_tiny_instance():
    n, d, m, s, a, q = 4, 5, 3, 1, 2, 0.1
    held = 0
    bound_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        D = lq.random_tight_frame(n, d, seed)  # tight: canonical dual is D, kappa = 1
        A = rng.standard_normal((m, n)) / (m * lq.gaussian_moment(q, 1.0)) ** (1.0 / q)
        rep_a = lq.estimate_rip(A, D.matrix, q, a, mode="exhaustive", budget=100, seed=seed)
        rep_sa = lq.estimate_rip(A, D.matrix, q, min(s + a, d), mode="exhaustive", budget=100, seed=seed)
        if rep_sa.delta >= 1.0:
            continue
        verdict = lq.check_recovery_condition(rep_a.delta, rep_sa.delta, s, a, 1.0, q)
        if not verdict.holds:
            # vacuous branch: the right-hand side must still be well defined
            if verdict.theta < 1.0:
                c1, _ = lq.error_constants(verdict.theta, verdict.rho, q, 1.0, rep_a.delta)
                bound_ok = bound_ok and c1 >= 0.0
            continue
        held += 1
        f = rng.standard_normal(n)
        f /= np.linalg.norm(f)
        res = lq.irls_analysis(lq.LqProblem(A=A, y=A @ f, D=D, q=q))
        c1, _ = lq.error_constants(verdict.theta, verdict.rho, q, 1.0, rep_a.delta)
        residual = lq.hard_threshold(D.matrix.T @ f, s, q).residual_q_norm
        rhs = c1 * residual / s ** (1.0 / q - 0.5)
        bound_ok = bound_ok and np.linalg.norm(res.f_hat - f) <= rhs
    _report(
        "recovery error bound on (n=4, d=5, m=3, s=1, a=2): error <= C1 * residual whenever the verdict holds",
        bound_ok and held > 0,
        f"verdict held for {held}/20 seeds",
    )
