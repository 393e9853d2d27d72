"""The package's BLAS thread rule: its numerical work runs at one OpenBLAS
thread, and the caller's thread count is back when the work returns or raises."""

import threading

import numpy as np
import pytest

import lqframes
import lqframes.cli as cli
import lqframes.experiments as experiments
import lqframes.frames as frames
import lqframes.rip as rip
import lqframes.solvers as solvers
from lqframes import InvalidParametersError, LqProblem, cosparse_signal, random_tight_frame

pytestmark = pytest.mark.skipif(frames._OPENBLAS is None, reason="numpy's BLAS is not OpenBLAS")

# The caller's count in every test: not the default, so a restore to the default would show.
CALLER = 3
SET_THREADS, GET_THREADS = frames._OPENBLAS or (None, None)


@pytest.fixture(autouse=True)
def caller_threads():
    saved = GET_THREADS()
    SET_THREADS(CALLER)
    yield
    SET_THREADS(saved)


def _problem(seed=0):
    D = random_tight_frame(20, 24, seed)
    f, _ = cosparse_signal(D, 8, seed + 1)
    A = np.random.default_rng(seed + 2).standard_normal((12, 20))
    return LqProblem(A=A, y=A @ f, D=D, q=0.7)


def _probe(monkeypatch, owner, name, seen):
    """Replace ``owner.name`` by a wrapper that records the thread count at each call."""
    original = getattr(owner, name)

    def probe(*args, **kwargs):
        seen.append(GET_THREADS())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, probe)


def _cli_solve_argv(tmp_path):
    problem = _problem()
    for name, arr in (("A", problem.A), ("D", problem.D.matrix), ("y", problem.y[None, :])):
        np.savetxt(tmp_path / f"{name}.csv", arr, delimiter=",", fmt="%.17g")
    return ["solve", "--matrix", str(tmp_path / "A.csv"), "--dict", str(tmp_path / "D.csv"),
            "--obs", str(tmp_path / "y.csv"), "--q", "0.7", "--out", str(tmp_path / "out.json")]


def _split(seed=0):
    dicts = [random_tight_frame(8, 8, seed + k) for k in range(2)]
    A = np.random.default_rng(seed).standard_normal((6, 8))
    return lqframes.SeparationProblem(dicts=dicts, A=A, y=A @ np.ones(8), q=0.7)


# (entry point, (module, name) it calls that is not scoped itself, the call)
ENTRIES = [
    ("irls_analysis", (solvers, "_wls_steps"), lambda tmp: lqframes.irls_analysis(_problem())),
    ("irl1_analysis", (solvers, "_wls_steps"), lambda tmp: lqframes.irl1_analysis(_problem())),
    ("run_cell", (experiments, "random_tight_frame"),
     lambda tmp: lqframes.run_figure1(trials=2, n=20, d=24, m=12, s=8)),
    ("solve_split_analysis", (solvers, "_wls_steps"), lambda tmp: lqframes.solve_split_analysis(_split())),
    ("estimate_rip", (rip, "rip_scan"),
     lambda tmp: lqframes.estimate_rip(_problem().A, _problem().D, 0.7, 3, mode="sampled", budget=4)),
    ("estimate_nsp_theta", (rip, "_operands"), lambda tmp: lqframes.estimate_nsp_theta(_problem().A, _problem().D, 0.7, 3)),
    ("cli_main", (cli, "load_matrix"), lambda tmp: cli.main(_cli_solve_argv(tmp))),
]


@pytest.mark.parametrize("probe_at, call", [entry[1:] for entry in ENTRIES], ids=[entry[0] for entry in ENTRIES])
def test_each_entry_point_works_at_one_thread_and_restores_the_callers_count(monkeypatch, tmp_path, probe_at, call):
    seen = []
    _probe(monkeypatch, *probe_at, seen)
    call(tmp_path)
    assert seen and set(seen) == {1}
    assert GET_THREADS() == CALLER


def test_the_callers_count_is_restored_when_a_solve_raises():
    problem = _problem()
    A = np.vstack([problem.A[:-1], problem.A[:1]])  # a repeated row: rank below the row count
    with pytest.raises(InvalidParametersError, match="^measurement matrix is row-rank deficient$"):
        lqframes.irls_analysis(LqProblem(A=A, y=A @ np.ones(20), D=problem.D, q=0.7))
    assert GET_THREADS() == CALLER


def test_a_nested_scope_restores_only_at_the_outermost_exit(monkeypatch, tmp_path):
    # cli.main -> irls_analysis: when the inner solve returns, main's scope is still open
    after_inner = []
    solve = cli.irls_analysis

    def solve_then_read(*args, **kwargs):
        result = solve(*args, **kwargs)
        after_inner.append(GET_THREADS())
        return result

    monkeypatch.setattr(cli, "irls_analysis", solve_then_read)
    assert cli.main(_cli_solve_argv(tmp_path)) == 0
    assert after_inner == [1]
    assert GET_THREADS() == CALLER


def test_concurrent_solves_in_python_threads_restore_the_callers_count(monkeypatch):
    # Both solves are inside their scopes at once; the second reads the count
    # after the first has returned, and the count is back once both have.
    problem = _problem()
    both_inside = threading.Barrier(2, timeout=60)
    first_returned = threading.Event()
    seen, results = [], []
    wls_steps = solvers._wls_steps

    def overlapping(prob):
        both_inside.wait()
        if threading.current_thread().name == "second":
            assert first_returned.wait(60)
            seen.append(GET_THREADS())
        return wls_steps(prob)

    def solve():
        results.append(lqframes.irls_analysis(problem))
        if threading.current_thread().name == "first":
            first_returned.set()

    monkeypatch.setattr(solvers, "_wls_steps", overlapping)
    workers = [threading.Thread(target=solve, name=name) for name in ("first", "second")]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120)
    assert len(results) == 2
    assert seen == [1]
    assert GET_THREADS() == CALLER


def test_without_openblas_the_scope_does_nothing_and_results_are_unchanged(monkeypatch):
    problem = _problem()
    scoped = lqframes.irls_analysis(problem)
    monkeypatch.setattr(frames, "_OPENBLAS", None)
    seen = []
    _probe(monkeypatch, solvers, "_wls_steps", seen)
    plain = lqframes.irls_analysis(problem)
    assert seen == [CALLER]
    assert (plain.iterations, plain.converged) == (scoped.iterations, scoped.converged)
    np.testing.assert_allclose(plain.f_hat, scoped.f_hat, rtol=1e-9, atol=1e-12)
