import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from lqframes import (
    CellResult,
    ExperimentSpec,
    GenerationFailedError,
    InvalidParametersError,
    cell_key,
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
from lqframes.experiments import _check_cell, _recovery_trial, _separation_trial

# feasible desk-scale cell: exact analysis sparsity requires s > d - n
_SMALL = {"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 6}
_SEPARATION = {"n": 16, "s1": 1, "s2": 1, "m": 12, "q": 0.7}


def test_spec_rejects_empty_grid():
    with pytest.raises(InvalidParametersError):
        ExperimentSpec(kind="phase_transition", grid=[])


def test_spec_rejects_unknown_kind():
    # figure1 and bounds_table have runners, but none that takes a spec
    for kind in ("nope", "figure1", "bounds_table"):
        with pytest.raises(InvalidParametersError):
            ExperimentSpec(kind=kind, grid=[_SMALL])


def test_spec_rejects_zero_trials():
    with pytest.raises(InvalidParametersError):
        ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=0)


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="phase_transition", grid=[_SMALL], trials_per_cell=3, success_threshold=1e-4, master_seed=11
    )
    again = ExperimentSpec.from_json(json.dumps(asdict(spec)))
    assert again == spec


@pytest.mark.parametrize("threshold", [5e-324, 1.7976931348623157e308, 2])
def test_spec_json_round_trips_at_the_ends_of_the_threshold_interval(threshold):
    # thresholds are finite, so the spec's JSON holds no inf
    spec = ExperimentSpec(kind="phase_transition", grid=[_SMALL], success_threshold=threshold)
    assert ExperimentSpec.from_json(json.dumps(asdict(spec))) == spec


def test_spec_from_json_rejects_garbage():
    with pytest.raises(InvalidParametersError):
        ExperimentSpec.from_json("{not json")
    with pytest.raises(InvalidParametersError):
        ExperimentSpec.from_json(json.dumps({"grid": [_SMALL]}))
    with pytest.raises(InvalidParametersError):
        ExperimentSpec.from_json("[1, 2]")
    with pytest.raises(InvalidParametersError, match="unknown experiment kind"):
        ExperimentSpec.from_json(json.dumps({"kind": ["phase_transition"], "grid": [_SMALL]}))
    for grid in (5, [1]):
        with pytest.raises(InvalidParametersError):
            ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": grid}))
    with pytest.raises(InvalidParametersError):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [_SMALL], "trials_per_cell": [1]}))
    with pytest.raises(InvalidParametersError, match="cell 0 field 'label'"):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [{**_SMALL, "label": "a"}]}))
    with pytest.raises(InvalidParametersError, match="master_seed"):
        ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [_SMALL], "master_seed": -1}))


@pytest.mark.parametrize("field, value", [("trials", 3), ("seed", 5), ("threshold", 1e-3)])
def test_spec_from_json_refuses_an_unknown_field(field, value):
    # a misspelt field would otherwise run with the default silently
    text = json.dumps({"kind": "phase_transition", "grid": [_SMALL], field: value})
    with pytest.raises(InvalidParametersError, match=f"unknown field '{field}'"):
        ExperimentSpec.from_json(text)


def test_spec_from_json_takes_the_dataclass_defaults():
    spec = ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": [_SMALL]}))
    assert spec == ExperimentSpec(kind="phase_transition", grid=[_SMALL])


@pytest.mark.parametrize("threshold", ["x", "1e-3", None, True, [1e-3]])
def test_spec_refuses_a_threshold_that_is_not_a_number(threshold):
    with pytest.raises(InvalidParametersError, match="success_threshold"):
        ExperimentSpec(kind="phase_transition", grid=[_SMALL], success_threshold=threshold)
    text = json.dumps({"kind": "phase_transition", "grid": [_SMALL], "success_threshold": threshold})
    with pytest.raises(InvalidParametersError, match="success_threshold"):
        ExperimentSpec.from_json(text)


def test_trial_seed_is_stable():
    a = trial_seed(5, 2, 7).generate_state(4)
    b = trial_seed(5, 2, 7).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_seed(5, 2, 8).generate_state(4))


@pytest.mark.parametrize("indices", [(-1, 0), (0, -1), (0.5, 0), (0, True)])
def test_trial_seed_refuses_an_index_that_is_not_a_nonnegative_integer(indices):
    with pytest.raises(InvalidParametersError):
        trial_seed(0, *indices)


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
        raise GenerationFailedError("forced trial failure")

    monkeypatch.setattr(ex, "_recovery_trial", boom)
    spec = ExperimentSpec(
        kind="phase_transition", grid=[_SMALL, dict(_SMALL, m=10)], trials_per_cell=3, master_seed=0
    )
    results = ex.run_phase_transition(spec)
    assert calls["n"] == 6
    assert all(r.success_rate == 0.0 for r in results)


def test_a_trial_defect_propagates(monkeypatch):
    import lqframes.experiments as ex

    def boom(*args, **kwargs):
        raise RuntimeError("defect in a trial")

    monkeypatch.setattr(ex, "_recovery_trial", boom)
    spec = ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=3, master_seed=0)
    with pytest.raises(RuntimeError, match="defect in a trial"):
        ex.run_phase_transition(spec)


def test_phase_transition_single_trial_rate_is_binary():
    spec = ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=1, master_seed=2)
    (result,) = run_phase_transition(spec)
    assert result.success_rate in (0.0, 1.0)


def test_phase_transition_missing_cell_key():
    with pytest.raises(InvalidParametersError):
        run_phase_transition(ExperimentSpec(kind="phase_transition", grid=[{"n": 8}], trials_per_cell=1))


@pytest.mark.parametrize(
    "kind, trial, grid",
    [
        ("phase_transition", "_recovery_trial", [_SMALL, {"n": 20, "m": 14, "q": 0.7, "s": 6}]),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": 1, "s2": 1, "m": 12, "q": 0.7}, {"n": 12, "s1": 1, "s2": 1, "m": 8, "q": 0.7}],
        ),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, q=1.5)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, q=math.nan)]),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": 1, "s2": 1, "m": 12, "q": q} for q in (0.7, 0.0)],
        ),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, n=0)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, d=19)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, s=0)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, s=21)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, m=21)]),
        ("phase_transition", "_recovery_trial", [_SMALL, dict(_SMALL, m=-3)]),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": s1, "s2": 1, "m": m, "q": 0.7} for s1, m in ((1, 12), (0, 12))],
        ),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": 1, "s2": s2, "m": m, "q": 0.7} for s2, m in ((1, 12), (17, 12))],
        ),
        (
            "separation_sweep",
            "_separation_trial",
            [{"n": 16, "s1": 1, "s2": 1, "m": m, "q": 0.7} for m in (12, 17)],
        ),
    ],
)
def test_sweep_checks_every_cell_before_the_first_trial(monkeypatch, kind, trial, grid):
    import lqframes.experiments as ex

    calls = []
    monkeypatch.setattr(ex, trial, lambda *args: calls.append(args) or (0.0, 1))
    runner = ex.run_phase_transition if kind == "phase_transition" else ex.run_separation_sweep
    with pytest.raises(InvalidParametersError, match="cell 1"):
        runner(ExperimentSpec(kind=kind, grid=grid, trials_per_cell=5))
    assert calls == []


@pytest.mark.parametrize(
    "kind, cell, field", [("phase_transition", _SMALL, "trials"), ("separation_sweep", _SEPARATION, "mu1")]
)
def test_spec_refuses_a_cell_field_its_kind_does_not_have(kind, cell, field):
    # such a field would change every trial seed through cell_key, and mu1 is the runner's to report
    grid = [cell, {**cell, field: 3}]
    with pytest.raises(InvalidParametersError, match=f"cell 1 field '{field}'"):
        ExperimentSpec(kind=kind, grid=grid)
    with pytest.raises(InvalidParametersError, match=f"cell 1 field '{field}'"):
        ExperimentSpec.from_json(json.dumps({"kind": kind, "grid": grid}))


@pytest.mark.parametrize("odd_cell", [dict(_SMALL, label=1), {k: v for k, v in _SMALL.items() if k != "d"}],
                         ids=["extra-key", "missing-key"])
def test_a_grid_whose_cells_differ_in_keys_is_refused_before_any_trial(monkeypatch, odd_cell):
    import lqframes.experiments as ex

    calls = []
    monkeypatch.setattr(ex, "_recovery_trial", lambda **kwargs: calls.append(kwargs) or (0.0, 1))
    with pytest.raises(InvalidParametersError, match="cell 1 field"):
        ex.run_phase_transition(ExperimentSpec(kind="phase_transition", grid=[_SMALL, odd_cell], trials_per_cell=2))
    assert calls == []


@pytest.mark.parametrize("field, value", [("n", np.int64(20)), ("d", np.int32(24)), ("q", np.float32(0.5))])
def test_figure1_takes_a_numpy_scalar_as_the_equal_python_value(field, value):
    kwargs = dict(master_seed=3, trials=2, **dict(_SMALL, q=0.5))
    want = run_figure1(**kwargs)
    got = run_figure1(**{**kwargs, field: value})
    assert replace(got, wall_time_ms=0.0) == replace(want, wall_time_ms=0.0)
    assert [type(v) for v in got.params.values()] == [int, int, int, float, int]


def test_spec_with_numpy_scalars_round_trips_through_json():
    cell = {"n": np.int64(20), "d": np.int32(24), "m": np.uint8(14), "q": np.float64(0.7), "s": np.int16(6)}
    spec = ExperimentSpec(kind="phase_transition", grid=[cell], trials_per_cell=3)
    assert spec == ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=3)
    assert [type(v) for v in spec.grid[0].values()] == [int, int, int, float, int]
    assert ExperimentSpec.from_json(json.dumps(asdict(spec))) == spec


def test_an_integer_q_keeps_its_cell_key():
    # the key of this cell before numpy scalars were converted: a Python 1 still hashes as 1, not 1.0
    grid = [dict(_SMALL, q=1)]
    built = ExperimentSpec(kind="phase_transition", grid=grid)
    parsed = ExperimentSpec.from_json(json.dumps({"kind": "phase_transition", "grid": grid}))
    assert cell_key(built.grid[0]) == cell_key(parsed.grid[0]) == 1565141820717563671
    assert cell_key(dict(_SMALL, q=1.0)) != 1565141820717563671


def test_a_numpy_valued_cell_hashes_like_the_equal_python_cell():
    cell = {"n": np.int64(20), "d": np.int32(24), "m": np.uint8(14), "q": np.float64(0.7), "s": np.int16(6)}
    assert cell_key(cell) == cell_key(_SMALL)


@pytest.mark.parametrize(
    "kind, cell",
    [("phase_transition", _SMALL), ("phase_transition", dict(_SMALL, q=1)), ("phase_transition", dict(_SMALL, q=1.0)),
     ("separation_sweep", _SEPARATION), ("phase_transition", dict(_SMALL, n=np.int64(20), q=np.float32(0.7)))],
)
def test_a_checked_cell_keeps_its_key(kind, cell):
    # a checked cell holds Python values only, so its key stays the hash of its plain JSON text
    checked = _check_cell(kind, cell)
    plain = json.dumps(checked, sort_keys=True).encode("ascii")
    assert cell_key(checked) == int.from_bytes(hashlib.sha256(plain).digest()[:8], "big")


@pytest.mark.parametrize(
    "kwargs",
    [dict(q=1.5), dict(q=0.0), dict(q=math.nan), dict(d=19), dict(m=21), dict(s=0), dict(n=0), dict(threshold=0.0),
     dict(threshold=-1.0), dict(threshold=math.nan)],
    ids=["q-above-one", "q-zero", "q-nan", "d-below-n", "m-above-n", "s-zero", "n-zero", "threshold-zero",
         "threshold-negative", "threshold-nan"],
)
def test_figure1_checks_its_cell_before_the_first_trial(monkeypatch, kwargs):
    import lqframes.experiments as ex

    calls = []
    monkeypatch.setattr(ex, "_recovery_trial", lambda *args: calls.append(args) or (0.0, 1))
    with pytest.raises(InvalidParametersError):
        ex.run_figure1(trials=2, **{**_SMALL, **kwargs})
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
    # k = 51 * 10 = 510 > d: the union term stops at u = d, and ln(e d / u) = ln(e d / s) = 1 when d = s
    b2 = (31.0 / 40.0) ** 0.5 * (1.13 + math.sqrt(math.pi)) ** 2
    assert row["m_min"] == pytest.approx(
        6.25 * b2 * (510 * math.log(3.0) + math.log(2.0) + 10 + 10) + 17.6 * b2 * 510,
        rel=1e-12,
    )


def test_hadamard_matches_scipy():
    from scipy.linalg import hadamard

    import lqframes.experiments as ex

    for n in (2**k for k in range(8)):
        spikes, waves = ex._spikes_and_waves(n)
        np.testing.assert_array_equal(spikes.matrix, np.eye(n))
        np.testing.assert_array_equal(waves.matrix, hadamard(n) / math.sqrt(n))
        assert (spikes.lower_bound, spikes.upper_bound, waves.lower_bound, waves.upper_bound) == (1.0,) * 4


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
    with pytest.raises(InvalidParametersError):
        run_separation_sweep(ExperimentSpec(kind="separation_sweep", grid=grid, trials_per_cell=1))


def test_phase_transition_refuses_a_separation_spec():
    spec = ExperimentSpec(kind="separation_sweep", grid=[_SEPARATION], trials_per_cell=1)
    with pytest.raises(InvalidParametersError, match="^expected kind phase_transition, got 'separation_sweep'$"):
        run_phase_transition(spec)


def test_csv_refuses_cells_with_differing_parameter_keys():
    cells = [CellResult(params=params, success_rate=1.0, median_relative_error=0.0, median_iterations=1.0,
                        wall_time_ms=1.0) for params in ({"n": 20}, {"n": 20, "m": 14})]
    with pytest.raises(InvalidParametersError, match="differing parameter keys"):
        cells_to_csv(cells)


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
    rows = [cell.to_dict() for cell in cells]

    # CSV: each float reads back exactly, a bool is written True/False, inf as inf
    back = list(csv.DictReader(io.StringIO(cells_to_csv(cells))))
    assert [row.pop("tight") for row in back] == ["True", "False"]
    assert back[1]["median_relative_error"] == "inf"
    for row, want in zip(back, rows, strict=True):
        assert {k: float(v) for k, v in row.items()} == {k: v for k, v in want.items() if k != "tight"}

    def refuse(token):
        raise AssertionError(f"cells_to_json wrote the non-JSON token {token}")

    # strict JSON: each float reads back exactly, a bool as a bool (True == 1, so == alone would
    # accept an int), and the infinite error is written as null
    back = json.loads(cells_to_json(cells), parse_constant=refuse)
    assert back[1]["median_relative_error"] is None
    back[1]["median_relative_error"] = math.inf
    assert back == rows
    assert [type(row["tight"]) for row in back] == [bool, bool]


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


def test_spec_stores_numpy_settings_as_python_scalars():
    spec = ExperimentSpec(kind="phase_transition", grid=[_SMALL], trials_per_cell=np.int64(3),
                          success_threshold=np.float32(1e-3), master_seed=np.uint16(7))
    assert [type(v) for v in (spec.trials_per_cell, spec.success_threshold, spec.master_seed)] == [int, float, int]
    assert ExperimentSpec.from_json(json.dumps(asdict(spec))) == spec


def test_figure1_takes_a_numpy_threshold():
    kwargs = dict(master_seed=3, trials=2, **_SMALL)
    got = run_figure1(threshold=np.float32(1e-4), **kwargs)
    want = run_figure1(threshold=float(np.float32(1e-4)), **kwargs)
    assert replace(got, wall_time_ms=0.0) == replace(want, wall_time_ms=0.0)


def test_cells_json_keeps_numpy_integers_and_bools():
    cell = CellResult(
        params={"n": np.int64(12), "q": np.float32(0.5), "tight": np.bool_(True)},
        success_rate=np.float64(1.0),
        median_relative_error=np.float64(math.nan),
        median_iterations=np.int64(7),
        wall_time_ms=1.0,
    )
    (back,) = json.loads(cells_to_json([cell]))
    assert back == {"n": 12, "q": 0.5, "tight": True, "success_rate": 1.0, "median_relative_error": None,
                    "median_iterations": 7, "wall_time_ms": 1.0}
    assert [type(back[k]) for k in ("n", "q", "tight", "median_iterations")] == [int, float, bool, int]


def test_trial_set_up_computes_no_singular_vectors(monkeypatch):
    # signal generation and the kernel coordinates need singular values only, for rank tests
    svd, compute_uv, shapes = np.linalg.svd, [], []

    def spy(a, *args, **kwargs):
        compute_uv.append(kwargs.get("compute_uv", True))
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    _recovery_trial(100, 110, 50, 0.7, 25, np.random.SeedSequence(0))
    _separation_trial(32, 2, 2, 24, 0.7, np.random.SeedSequence(0))
    assert compute_uv == [False, False]  # one rank test per solve
    assert shapes == [(50, 50), (24, 24)]  # on R1 of the QR of A^T, not on A
