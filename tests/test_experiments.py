import json
import math

import numpy as np
import pytest

from lqframes import (
    CellResult,
    ExperimentSpec,
    InvalidSpecError,
    cells_from_csv,
    cells_from_json,
    cells_to_csv,
    cells_to_json,
    measurement_bound,
    run_bounds_table,
    run_figure1,
    run_phase_transition,
    run_separation_sweep,
    separation_measurement_bound,
    trial_seed,
)

# feasible desk-scale cell: exact analysis sparsity requires s > d - n
_SMALL = {"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 6}


def test_spec_rejects_empty_grid():
    with pytest.raises(InvalidSpecError):
        ExperimentSpec(kind="phase_transition", grid=[])


def test_spec_rejects_unknown_kind():
    # figure1 and bounds_table have runners, but none that takes a spec
    for kind in ("nope", "figure1", "bounds_table"):
        with pytest.raises(InvalidSpecError):
            ExperimentSpec(kind=kind, grid=[_SMALL])


def test_spec_rejects_zero_trials():
    with pytest.raises(InvalidSpecError):
        ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=0)


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="phase_transition", grid=[_SMALL], trials_per_cell=3, success_threshold=1e-4, master_seed=11
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec


def test_spec_from_json_rejects_garbage():
    with pytest.raises(InvalidSpecError):
        ExperimentSpec.from_json("{not json")
    with pytest.raises(InvalidSpecError):
        ExperimentSpec.from_json(json.dumps({"grid": [_SMALL]}))
    with pytest.raises(InvalidSpecError):
        ExperimentSpec.from_json("[1, 2]")
    for grid in (5, [1]):
        with pytest.raises(InvalidSpecError):
            ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": grid}))
    with pytest.raises(InvalidSpecError):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [_SMALL], "trials_per_cell": [1]}))
    with pytest.raises(InvalidSpecError, match="cell 0 field 'label'"):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [{**_SMALL, "label": "a"}]}))
    with pytest.raises(InvalidSpecError, match="master_seed"):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [_SMALL], "master_seed": -1}))


def test_trial_seed_is_stable():
    a = trial_seed(5, 2, 7).generate_state(4)
    b = trial_seed(5, 2, 7).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_seed(5, 2, 8).generate_state(4))


def test_figure1_deterministic_and_small_variant():
    kwargs = dict(master_seed=3, trials=3, **_SMALL)
    one = run_figure1(**kwargs)
    two = run_figure1(**kwargs)
    assert one.params == two.params
    assert one.success_rate == two.success_rate
    assert one.median_relative_error == two.median_relative_error
    assert one.success_rate == 1.0


def test_figure1_m_equals_n_always_succeeds():
    # determined system: the feasible set is a singleton
    cell = run_figure1(master_seed=1, trials=3, n=100, d=110, m=100, q=0.7, s=25)
    assert cell.success_rate == 1.0
    assert cell.median_iterations == 1.0


def test_phase_transition_sorted_and_order_invariant():
    cells = [
        dict(_SMALL, m=14, q=1.0),
        dict(_SMALL, m=10, q=0.5),
        dict(_SMALL, m=14, q=0.5),
    ]
    spec_fwd = ExperimentSpec(kind="phase_transition", grid=cells, trials_per_cell=2, master_seed=5)
    spec_rev = ExperimentSpec(
        kind="phase_transition", grid=list(reversed(cells)), trials_per_cell=2, master_seed=5
    )
    fwd = run_phase_transition(spec_fwd)
    rev = run_phase_transition(spec_rev)
    keys = [(r.params["q"], r.params["s"], r.params["m"]) for r in fwd]
    assert keys == sorted(keys)
    # seeds hash the cell's content, so grid order cannot change any number
    stats = lambda rs: {
        tuple(sorted(r.params.items())): (r.success_rate, r.median_relative_error, r.median_iterations)
        for r in rs
    }
    assert stats(fwd) == stats(rev)


def test_phase_transition_failed_trials_count_as_unsuccessful():
    # s = 4 <= d - n = 4: generation is infeasible, so every trial fails,
    # but the sweep still completes with zero success
    bad = {"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 4}
    spec = ExperimentSpec(kind="phase_transition", grid=[bad, _SMALL], trials_per_cell=2, master_seed=1)
    results = run_phase_transition(spec)
    by_s = {r.params["s"]: r for r in results}
    assert by_s[4].success_rate == 0.0
    assert math.isinf(by_s[4].median_relative_error)
    assert by_s[6].success_rate == 1.0


def test_total_trials_executed_despite_errors(monkeypatch):
    import lqframes.experiments as ex

    calls = {"n": 0}

    def boom(*args, **kwargs):
        calls["n"] += 1
        raise RuntimeError("forced trial failure")

    monkeypatch.setattr(ex, "_recovery_trial", boom)
    spec = ExperimentSpec(
        kind="phase_transition", grid=[_SMALL, dict(_SMALL, m=10)], trials_per_cell=3, master_seed=0
    )
    results = ex.run_phase_transition(spec)
    assert calls["n"] == 6
    assert all(r.success_rate == 0.0 for r in results)


def test_phase_transition_single_trial_rate_is_binary():
    spec = ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=1, master_seed=2)
    (result,) = run_phase_transition(spec)
    assert result.success_rate in (0.0, 1.0)


def test_phase_transition_missing_cell_key():
    spec = ExperimentSpec(kind="phase_transition", grid=[{"n": 8}], trials_per_cell=1)
    with pytest.raises(InvalidSpecError):
        run_phase_transition(spec)


@pytest.mark.parametrize(
    "kind, trial, grid",
    [
        ("phase_transition", "_recovery_trial", [_SMALL, {"n": 20, "m": 14, "q": 0.7, "s": 6}]),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": 1, "s2": 1, "m": 12, "q": 0.7}, {"n": 12, "s1": 1, "s2": 1, "m": 8, "q": 0.7}],
        ),
    ],
)
def test_sweep_checks_every_cell_before_the_first_trial(monkeypatch, kind, trial, grid):
    import lqframes.experiments as ex

    calls = []
    monkeypatch.setattr(ex, trial, lambda *args: calls.append(args) or (0.0, 1))
    spec = ExperimentSpec(kind=kind, grid=grid, trials_per_cell=5)
    runner = ex.run_phase_transition if kind == "phase_transition" else ex.run_separation_sweep
    with pytest.raises(InvalidSpecError, match="cell 1"):
        runner(spec)
    assert calls == []


def test_phase_transition_smaller_q_needs_no_more_measurements():
    # the feasible-parameter twin of the desk-scale acceptance check:
    # minimal m reaching 90% success is no larger at q=0.5 than at q=1.0
    m_grid = (16, 24, 32, 40)
    minimal = {}
    for qi, q in enumerate((0.5, 1.0)):
        grid = [{"n": 64, "d": 70, "m": m, "q": q, "s": 8} for m in m_grid]
        spec = ExperimentSpec(
            kind="phase_transition", grid=grid, trials_per_cell=10, success_threshold=1e-4, master_seed=7
        )
        results = run_phase_transition(spec)
        reached = [r.params["m"] for r in results if r.success_rate >= 0.9]
        assert reached, f"no m in {m_grid} reached 90% at q={q}"
        minimal[q] = min(reached)
    assert minimal[0.5] <= minimal[1.0]


def test_bounds_table_delegates():
    rows = run_bounds_table([0.3, 0.7, 1.0], 25, 110, kappa=1.0)
    for row in rows:
        assert row["m_min"] == measurement_bound(row["q"], 25, 110, 1.0)
        assert row["m_min_separation"] == separation_measurement_bound(row["q"], 25, 110)


def test_bounds_table_d_equals_s_row():
    (row,) = run_bounds_table([1.0], 10, 10, kappa=1.0)
    # ln(e d / s) = 1 when d = s
    b2 = (31.0 / 40.0) ** 0.5 * (1.13 + math.sqrt(math.pi)) ** 2
    assert row["m_min"] == pytest.approx(
        6.25 * b2 * (51 * (math.log(3.0) - math.log(51.0)) * 10 + math.log(2.0) + 52 * 10) + 17.6 * b2 * 510,
        rel=1e-12,
    )


def test_separation_sweep_reports_coherence_and_is_deterministic():
    grid = [{"n": 16, "s1": 1, "s2": 1, "m": 12, "q": 0.7}]
    spec = ExperimentSpec(
        kind="separation_sweep", grid=grid, trials_per_cell=3, success_threshold=1e-3, master_seed=4
    )
    first = run_separation_sweep(spec)
    second = run_separation_sweep(spec)
    assert first[0].params["mu1"] == pytest.approx(1.0 / math.sqrt(16))
    assert first[0].success_rate == second[0].success_rate == 1.0
    assert first[0].median_relative_error == second[0].median_relative_error


def test_separation_sweep_requires_power_of_two():
    grid = [{"n": 12, "s1": 1, "s2": 1, "m": 8, "q": 0.7}]
    spec = ExperimentSpec(kind="separation_sweep", grid=grid, trials_per_cell=1)
    with pytest.raises(InvalidSpecError):
        run_separation_sweep(spec)


def test_cell_serialization_round_trips_losslessly():
    cells = [
        CellResult(
            params={"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 6, "tight": True},
            success_rate=0.95,
            median_relative_error=1.2345678901234567e-05,
            median_iterations=37.5,
            wall_time_ms=123.456,
        ),
        CellResult(
            params={"n": 20, "d": 24, "m": 10, "q": 0.5, "s": 6, "tight": False},
            success_rate=0.0,
            median_relative_error=math.inf,
            median_iterations=0.0,
            wall_time_ms=1.0,
        ),
    ]
    for back in (cells_from_csv(cells_to_csv(cells)), cells_from_json(cells_to_json(cells))):
        assert back == cells
        # True == 1, so == alone would accept a bool read back as an int
        assert [type(cell.params["tight"]) for cell in back] == [bool, bool]


def test_cells_csv_header():
    cell = CellResult(
        params={"q": 0.7, "m": 14},
        success_rate=1.0,
        median_relative_error=1e-6,
        median_iterations=10.0,
        wall_time_ms=5.0,
    )
    header = cells_to_csv([cell]).splitlines()[0]
    assert header == "m,q,success_rate,median_relative_error,median_iterations,wall_time_ms"
