import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lqframes
from lqframes import InvalidParametersError, InvalidSpecError

_NAN = math.nan
_CELL = {"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 6}


def test_public_names_are_exported_once():
    # The package star-imports its submodules, so a name exported by two of
    # them would silently shadow the other; it would show here as a duplicate.
    names = lqframes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(lqframes, name), name
    assert {"cell_key", "split_nsp_constant", "split_nsp_condition"} <= set(names)


def test_importing_the_package_loads_no_scipy():
    # the runtime needs numpy alone; scipy is a reference for the tests only
    script = """
import sys
import lqframes, lqframes.cli
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lqframes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: lqframes.LqProblem(A=np.eye(2), y=np.ones(2), D=lqframes.Frame.from_matrix(np.eye(2)), q=0.7,
                                    epsilon=_NAN), InvalidParametersError),
        (lambda: lqframes.measurement_bound(0.7, 2, 8, kappa=_NAN), InvalidParametersError),
        (lambda: lqframes.check_recovery_condition(_NAN, 0.1, 1, 4, 1.0, 0.7), InvalidParametersError),
        (lambda: lqframes.check_recovery_condition(0.1, _NAN, 1, 4, 1.0, 0.7), InvalidParametersError),
        (lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, _NAN, 0.7), InvalidParametersError),
        (lambda: lqframes.check_separation_conditions(_NAN, [1, 1], 5, 0.1, 0.1, 0.7), InvalidParametersError),
        (lambda: lqframes.check_separation_conditions(0.01, [1, 1], 5, _NAN, 0.1, 0.7), InvalidParametersError),
        (lambda: lqframes.gaussian_moment(0.7, _NAN), InvalidParametersError),
        (lambda: lqframes.gaussian_failure_probability(0.7, _NAN, 0.2, 1000, 5, 50), InvalidParametersError),
        (lambda: lqframes.gaussian_failure_probability(0.7, 0.3, 0.2, _NAN, 5, 50), InvalidParametersError),
        (lambda: lqframes.error_constants(_NAN, 0.25, 0.7, 1.0, 0.1), InvalidParametersError),
        (lambda: lqframes.split_nsp_constant(0.5, 1.1, _NAN, 0.7, 2), InvalidParametersError),
        (lambda: lqframes.split_nsp_condition(0.5, 1.1, _NAN, 0.7, 2), InvalidParametersError),
        (lambda: lqframes.ExperimentSpec(kind="phase_transition", grid=[_CELL], success_threshold=_NAN),
         InvalidSpecError),
    ],
    ids=[
        "problem-epsilon", "bound-kappa", "condition-delta-a", "condition-delta-sa", "condition-kappa",
        "separation-mu1", "separation-delta-a", "moment-sigma", "failure-eta", "failure-m", "error-theta",
        "split-U", "split-condition-U", "spec-threshold",
    ],
)
def test_nan_parameters_are_refused(call, error):
    # every range check is written as the negation of the admissible range, which NaN never meets
    with pytest.raises(error):
        call()


def _spec_json(**fields):
    return json.dumps({"kind": "phase_transition", "grid": [_CELL], **fields})


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: lqframes.hard_threshold(np.arange(4.0), 2.5), InvalidParametersError),
        (lambda: lqframes.cosparse_signal(lqframes.random_tight_frame(4, 6, 0), 2.5, 0), InvalidParametersError),
        (lambda: lqframes.measurement_bound(0.7, 2.5, 8), InvalidParametersError),
        (lambda: lqframes.separation_measurement_bound(0.7, 2.5, 8), InvalidParametersError),
        (lambda: lqframes.check_separation_conditions(0.01, [1.7, 2.2], 5, 0.1, 0.1, 0.7), InvalidParametersError),
        (lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4.5, 1.0, 0.7), InvalidParametersError),
        (lambda: lqframes.ExperimentSpec.from_json(_spec_json(trials_per_cell=2.7)), InvalidSpecError),
        (lambda: lqframes.ExperimentSpec.from_json(_spec_json(master_seed=1.9)), InvalidSpecError),
        (lambda: lqframes.random_tight_frame(4.5, 6, 0), InvalidParametersError),
        (lambda: lqframes.run_figure1(trials=2.5), InvalidParametersError),
        (lambda: lqframes.run_figure1(n=20.0), InvalidParametersError),
        (lambda: lqframes.gaussian_failure_probability(0.7, 0.3, 0.2, 1000, 2.5, 50), InvalidParametersError),
    ],
    ids=["threshold-s", "cosparse-s", "bound-s", "separation-bound-s", "separation-sparsities", "condition-a",
         "spec-trials", "spec-seed", "tight-frame-n", "figure1-trials", "figure1-n", "failure-k"],
)
def test_non_integer_orders_are_refused(call, error):
    # an order, count or seed is an integer; a float is refused, never truncated
    with pytest.raises(error, match="is not an integer"):
        call()


_EYE_FRAME = lqframes.Frame.from_matrix(np.eye(2))

_NUMBER_PARAMETERS = {
    "problem-q": lambda v: lqframes.LqProblem(A=np.eye(2), y=np.ones(2), D=_EYE_FRAME, q=v),
    "problem-epsilon": lambda v: lqframes.LqProblem(A=np.eye(2), y=np.ones(2), D=_EYE_FRAME, q=0.7, epsilon=v),
    "config-tol": lambda v: lqframes.SolverConfig(tol=v),
    "rip-q": lambda v: lqframes.estimate_rip(np.eye(2), np.eye(2), v, 1),
    "moment-q": lambda v: lqframes.gaussian_moment(v),
    "threshold-q": lambda v: lqframes.hard_threshold(np.arange(4.0), 1, v),
    "figure1-threshold": lambda v: lqframes.run_figure1(trials=1, threshold=v),
    "spec-threshold": lambda v: lqframes.ExperimentSpec(kind="phase_transition", grid=[_CELL], success_threshold=v),
}


@pytest.mark.parametrize("value", ["0.7", None, True], ids=["string", "none", "bool"])
@pytest.mark.parametrize("entry", list(_NUMBER_PARAMETERS))
def test_a_scalar_parameter_that_is_not_a_number_is_refused(entry, value):
    # one rule (frames._is_number): a Python or numpy int or float, never a bool
    with pytest.raises(lqframes.LqframesError):
        _NUMBER_PARAMETERS[entry](value)


@pytest.mark.parametrize("entry", [e for e in _NUMBER_PARAMETERS if not e.startswith("figure1")])
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(1)], ids=["f32", "f64", "i64"])
def test_a_numpy_real_is_a_number(entry, value):
    _NUMBER_PARAMETERS[entry](value)
