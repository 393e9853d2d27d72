import ast
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lqframes
from lqframes import InvalidParametersError

_NAN = math.nan
_CELL = {"n": 20, "d": 24, "m": 14, "q": 0.7, "s": 6}


def test_public_names_are_exported_once():
    # The package star-imports its submodules, so a name exported by two of
    # them would silently shadow the other; it would show here as a duplicate.
    names = lqframes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(lqframes, name), name


_ROOT = Path(__file__).resolve().parents[1]

# The one public name kept without a caller, with its reason.
_UNCALLED = {
    "objective": "the per-trial outcome records planned in ROADMAP items 4 and 5 will call it once per trial",
}


def _referenced_names(nodes):
    """Every identifier the nodes use as a name or as an attribute, anywhere in their code."""
    names = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _reached_names():
    """The names reachable from the package's import-time code, the CLI, the benchmark and the paper checks.

    Each top-level def or class of ``src/lqframes`` is a node whose edges are the names its code
    references, and so is each public method or property of a class, keyed by its own name; the class's
    node keeps the rest of the class.  Same-named definitions share a node.  The walk starts from every
    other module-level statement of the package, from ``main``, and from all of ``lqbench/*.py`` (not its
    tests) and ``tests/test_acceptance.py``.
    """
    edges, roots = {}, {"main"}
    for path in sorted((_ROOT / "src" / "lqframes").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                members = [sub for sub in stmt.body if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_"]
                for member in members:
                    edges.setdefault(member.name, set()).update(_referenced_names([member]))
                rest = [*stmt.bases, *stmt.decorator_list, *(sub for sub in stmt.body if sub not in members)]
                edges.setdefault(stmt.name, set()).update(_referenced_names(rest))
            elif isinstance(stmt, ast.FunctionDef):
                edges.setdefault(stmt.name, set()).update(_referenced_names([stmt]))
            else:
                roots |= _referenced_names([stmt])
    callers = [
        *sorted(p for p in (_ROOT / "lqbench").glob("*.py") if not p.name.startswith("test_")),
        _ROOT / "tests" / "test_acceptance.py",
    ]
    roots |= _referenced_names(ast.parse(p.read_text(encoding="utf-8")) for p in callers)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges.get(name, ()))
    return reached


def test_every_public_name_has_a_caller():
    # A public name, method or property stays only if the package's import-time code, the CLI, the benchmark's
    # own modules or the paper-claim checks reach it; the unit tests alone, or an uncalled name, do not keep one.
    reached = _reached_names()
    # __version__ is package metadata, read by tools, not called
    public = [name for name in lqframes.__all__ if not name.startswith("__")]
    classes = [(name, getattr(lqframes, name)) for name in public if isinstance(getattr(lqframes, name), type)]
    public += [f"{name}.{member}" for name, cls in classes for member, value in vars(cls).items()
               if member[0] != "_" and isinstance(value, (types.FunctionType, property, classmethod))]
    uncalled = sorted(name for name in public if name.rpartition(".")[2] not in reached)
    assert uncalled == sorted(_UNCALLED)


def test_each_error_class_is_raised_somewhere():
    # one class per kind of failure, and each but the base class has a raise site in the package
    assert lqframes.errors.__all__ == [
        "LqframesError", "InvalidParametersError", "IllConditionedError", "GenerationFailedError",
        "DegenerateDictionaryError", "ConditionUnevaluableError",
    ]
    raised = {
        node.exc.func.id
        for path in (_ROOT / "src" / "lqframes").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
    }
    assert set(lqframes.errors.__all__) - raised == {"LqframesError"}


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


def _is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def test_no_source_file_imports_scipy():
    # an import inside a function escapes the check above until it runs
    imports = [
        f"{path.name}:{node.lineno}"
        for path in (_ROOT / "src" / "lqframes").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(_is_scipy(alias.name) for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module))
    ]
    assert imports == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: lqframes.LqProblem(A=np.eye(2), y=np.ones(2), D=lqframes.Frame.from_matrix(np.eye(2)), q=0.7,
                                   epsilon=_NAN),
        lambda: lqframes.measurement_bound(0.7, 2, 8, kappa=_NAN),
        lambda: lqframes.check_recovery_condition(_NAN, 0.1, 1, 4, 1.0, 0.7),
        lambda: lqframes.check_recovery_condition(0.1, _NAN, 1, 4, 1.0, 0.7),
        lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, _NAN, 0.7),
        lambda: lqframes.check_separation_conditions(_NAN, [1, 1], 5, 0.1, 0.1, 0.7),
        lambda: lqframes.check_separation_conditions(0.01, [1, 1], 5, _NAN, 0.1, 0.7),
        lambda: lqframes.error_constants(_NAN, 0.25, 0.7, 1.0, 0.1),
        lambda: lqframes.split_nsp_constant(0.5, 1.1, _NAN, 0.7, 2),
        lambda: lqframes.ExperimentSpec(kind="phase_transition", grid=[_CELL], success_threshold=_NAN),
        lambda: lqframes.SolverConfig(tol=_NAN),
        lambda: lqframes.run_figure1(trials=1, threshold=_NAN),
        lambda: lqframes.error_constants(0.5, _NAN, 0.7, 1.0, 0.1),
        lambda: lqframes.error_constants(0.5, 0.25, 0.7, _NAN, 0.1),
        lambda: lqframes.error_constants(0.5, 0.25, 0.7, 1.0, _NAN),
        lambda: lqframes.check_separation_conditions(0.01, [1, 1], 5, 0.1, _NAN, 0.7),
        lambda: lqframes.split_nsp_constant(_NAN, 1.1, 0.1, 0.7, 2),
        lambda: lqframes.split_nsp_constant(0.5, _NAN, 0.1, 0.7, 2),
        lambda: lqframes.objective(np.ones(2), np.eye(2), _NAN),
        lambda: lqframes.tail_constant(_NAN),
        lambda: lqframes.measurement_bound(_NAN, 2, 8),
        lambda: lqframes.separation_measurement_bound(_NAN, 2, 8),
        lambda: lqframes.run_bounds_table([_NAN], 2, 8),
        lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, 1.0, _NAN),
        lambda: lqframes.error_constants(0.5, 0.25, _NAN, 1.0, 0.1),
        lambda: lqframes.check_separation_conditions(0.01, [1, 1], 5, 0.1, 0.1, _NAN),
        lambda: lqframes.split_nsp_constant(0.5, 1.1, 0.1, _NAN, 2),
        lambda: lqframes.estimate_nsp_theta(np.ones((1, 2)), np.eye(2), _NAN, 1),
        lambda: lqframes.ExperimentSpec(kind="phase_transition", grid=[dict(_CELL, q=_NAN)]),
    ],
    ids=[
        "problem-epsilon", "bound-kappa", "condition-delta-a", "condition-delta-sa", "condition-kappa",
        "separation-mu1", "separation-delta-a", "error-theta", "split-U", "spec-threshold", "config-tol",
        "figure1-threshold", "error-rho", "error-lower-bound", "error-delta-a", "separation-delta-sa", "split-rho",
        "split-delta-ratio", "objective-q", "tail-q", "bound-q", "separation-bound-q", "bounds-table-q",
        "condition-q", "error-q", "separation-q", "split-q", "nsp-q", "spec-cell-q",
    ],
)
def test_nan_parameters_are_refused(call):
    # every range check is written as the negation of the admissible range, which NaN never meets
    with pytest.raises(InvalidParametersError):
        call()


def _spec_json(**fields):
    return json.dumps({"kind": "phase_transition", "grid": [_CELL], **fields})


@pytest.mark.parametrize(
    "call",
    [
        lambda: lqframes.hard_threshold(np.arange(4.0), 2.5),
        lambda: lqframes.cosparse_signal(lqframes.random_tight_frame(4, 6, 0), 2.5, 0),
        lambda: lqframes.measurement_bound(0.7, 2.5, 8),
        lambda: lqframes.separation_measurement_bound(0.7, 2.5, 8),
        lambda: lqframes.check_separation_conditions(0.01, [1.7, 2.2], 5, 0.1, 0.1, 0.7),
        lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4.5, 1.0, 0.7),
        lambda: lqframes.ExperimentSpec.from_json(_spec_json(trials_per_cell=2.7)),
        lambda: lqframes.ExperimentSpec.from_json(_spec_json(master_seed=1.9)),
        lambda: lqframes.random_tight_frame(4.5, 6, 0),
        lambda: lqframes.run_figure1(trials=2.5),
        lambda: lqframes.run_figure1(n=20.0),
    ],
    ids=["threshold-s", "cosparse-s", "bound-s", "separation-bound-s", "separation-sparsities", "condition-a",
         "spec-trials", "spec-seed", "tight-frame-n", "figure1-trials", "figure1-n"],
)
def test_non_integer_orders_are_refused(call):
    # an order, count or seed is an integer; a float is refused, never truncated
    with pytest.raises(InvalidParametersError, match="is not an integer"):
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
    "bound-kappa": lambda v: lqframes.measurement_bound(0.7, 2, 8, kappa=v),
    "condition-kappa": lambda v: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, v, 0.7),
    "condition-delta-a": lambda v: lqframes.check_recovery_condition(v, 0.1, 1, 4, 1.0, 0.7),
    "condition-delta-sa": lambda v: lqframes.check_recovery_condition(0.1, v, 1, 4, 1.0, 0.7),
    "error-theta": lambda v: lqframes.error_constants(v, 0.25, 0.7, 1.0, 0.1),
    "error-rho": lambda v: lqframes.error_constants(0.5, v, 0.7, 1.0, 0.1),
    "error-lower-bound": lambda v: lqframes.error_constants(0.5, 0.25, 0.7, v, 0.1),
    "error-delta-a": lambda v: lqframes.error_constants(0.5, 0.25, 0.7, 1.0, v),
    "separation-mu1": lambda v: lqframes.check_separation_conditions(v, [1, 1], 5, 0.1, 0.1, 0.7),
    "separation-delta-a": lambda v: lqframes.check_separation_conditions(0.01, [1, 1], 5, v, 0.1, 0.7),
    "separation-delta-sa": lambda v: lqframes.check_separation_conditions(0.01, [1, 1], 5, 0.1, v, 0.7),
    "split-rho": lambda v: lqframes.split_nsp_constant(v, 1.1, 0.1, 0.5, 2),
    "split-delta-ratio": lambda v: lqframes.split_nsp_constant(0.5, v, 0.1, 0.5, 2),
    "split-U": lambda v: lqframes.split_nsp_constant(0.5, 1.1, v, 0.5, 2),
    "objective-q": lambda v: lqframes.objective(np.ones(2), np.eye(2), v),
    "tail-q": lambda v: lqframes.tail_constant(v),
    "bound-q": lambda v: lqframes.measurement_bound(v, 2, 8),
    "separation-bound-q": lambda v: lqframes.separation_measurement_bound(v, 2, 8),
    "bounds-table-q": lambda v: lqframes.run_bounds_table([v], 2, 8),
    "condition-q": lambda v: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, 1.0, v),
    "error-q": lambda v: lqframes.error_constants(0.5, 0.25, v, 1.0, 0.1),
    "separation-q": lambda v: lqframes.check_separation_conditions(0.01, [1, 1], 5, 0.1, 0.1, v),
    "split-q": lambda v: lqframes.split_nsp_constant(0.5, 1.1, 0.1, v, 2),
    "nsp-q": lambda v: lqframes.estimate_nsp_theta(np.ones((1, 2)), np.eye(2), v, 1),
    "spec-cell-q": lambda v: lqframes.ExperimentSpec(kind="phase_transition", grid=[dict(_CELL, q=v)]),
}

# Each entry's interval, as its function declares it to frames._check_real.  The theta of
# error_constants admits [0, inf] but raises ConditionUnevaluableError from 1 on; a delta_sa of
# 1 or more rules a condition out, which is a verdict, not an error.
_INTERVALS = {
    "problem-q": "(0, 1]", "problem-epsilon": "[0, inf]", "config-tol": "(0, inf)", "rip-q": "(0, 1]",
    "moment-q": "(0, 1]", "threshold-q": "(0, 1]", "figure1-threshold": "(0, inf)", "spec-threshold": "(0, inf)",
    "bound-kappa": "[1, inf)", "condition-kappa": "[1, inf]", "condition-delta-a": "[0, inf]",
    "condition-delta-sa": "[0, inf]", "error-theta": "[0, inf]", "error-rho": "(0, 1)",
    "error-lower-bound": "(0, inf]", "error-delta-a": "[0, inf]", "separation-mu1": "[0, inf]",
    "separation-delta-a": "[0, inf]", "separation-delta-sa": "[0, inf]", "split-rho": "(0, 1)",
    "split-delta-ratio": "[1, inf]", "split-U": "[0, 1)", "objective-q": "(0, 1]", "tail-q": "(0, 1]",
    "bound-q": "(0, 1]", "separation-bound-q": "(0, 1]", "bounds-table-q": "(0, 1]", "condition-q": "(0, 1]",
    "error-q": "(0, 1]", "separation-q": "(0, 1]", "split-q": "(0, 1]", "nsp-q": "(0, 1]", "spec-cell-q": "(0, 1]",
}
_UNEVALUABLE_FROM_ONE = {"error-theta"}


@pytest.mark.parametrize("value", ["0.7", None, True], ids=["string", "none", "bool"])
@pytest.mark.parametrize("entry", list(_NUMBER_PARAMETERS))
def test_a_scalar_parameter_that_is_not_a_number_is_refused(entry, value):
    # one rule (frames._check_real): a Python or numpy int or float, never a bool
    with pytest.raises(lqframes.LqframesError):
        _NUMBER_PARAMETERS[entry](value)


def _ends(interval):
    return tuple(float(end) for end in interval[1:-1].split(", "))


def _holds_half_and_one(entry):
    (low, high), closed_high = _ends(_INTERVALS[entry]), _INTERVALS[entry][-1] == "]"
    return entry not in _UNEVALUABLE_FROM_ONE and low < 0.5 and (1 < high or (1 == high and closed_high))


# An entry whose interval leaves out 0.5 or 1 takes its numpy reals in the interval test below instead.
@pytest.mark.parametrize(
    "entry", [e for e in _NUMBER_PARAMETERS if not e.startswith("figure1") and _holds_half_and_one(e)]
)
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(1)], ids=["f32", "f64", "i64"])
def test_a_numpy_real_is_a_number(entry, value):
    _NUMBER_PARAMETERS[entry](value)


@pytest.mark.parametrize("entry", list(_INTERVALS))
def test_a_real_argument_just_past_its_interval_is_refused(entry):
    # frames._check_real refuses a value just past each finite end, and inf where the interval is open there
    interval, call = _INTERVALS[entry], _NUMBER_PARAMETERS[entry]
    (low, high), closed_low, closed_high = _ends(interval), interval[0] == "[", interval[-1] == "]"
    past = [math.nextafter(low, -math.inf) if closed_low else low]
    if high < math.inf:
        past.append(math.nextafter(high, math.inf) if closed_high else high)
    elif not closed_high:
        past.append(math.inf)
    for value in past:
        with pytest.raises(InvalidParametersError, match="must "):
            call(value)
    inside = [np.float32(low + 0.5 if high == math.inf else (low + high) / 2)]
    inside += [low, np.int64(low)] if closed_low else []
    inside += [high] if closed_high else []
    for value in [] if entry.startswith("figure1") else inside:  # an admitted threshold would run a trial
        try:
            call(value)
        except lqframes.ConditionUnevaluableError:
            assert entry in _UNEVALUABLE_FROM_ONE and value >= 1
    if entry in _UNEVALUABLE_FROM_ONE:
        with pytest.raises(lqframes.ConditionUnevaluableError):
            call(1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lqframes.split_nsp_constant(-0.5, 1.1, 0.1, 0.5, 2),  # was the complex number (-0.600+0.600j)
        lambda: lqframes.split_nsp_constant(0.5, 1.1, 0.1, 0.5, 0),
        lambda: lqframes.measurement_bound(1.0, 5, 20, kappa=1e200),  # its comparison order overflowed
        lambda: lqframes.measurement_bound(1.0, 5, 20, kappa=10**400),
        lambda: lqframes.measurement_bound(0.5, 5, 10**400),  # d / s overflowed
        lambda: lqframes.separation_measurement_bound(0.5, 5, 10**400),
        lambda: lqframes.measurement_bound(0.5, 10**400, 10**400),
        lambda: lqframes.check_recovery_condition(0.1, 0.1, 1, 4, 10**400, 0.7),  # leaked OverflowError
        lambda: lqframes.error_constants(0.5, 0.25, 0.7, 10**400, 0.1),
        lambda: lqframes.error_constants(0.5, 0.25, 0.7, -10**5000, 0.1),  # a message printing it passes 4300 digits
        lambda: lqframes.measurement_bound(0.7, 10**5000, 5),
    ],
    ids=["split-negative-rho", "split-no-component", "bound-kappa-overflow",
         "bound-integer-kappa-overflow", "bound-d-overflow", "separation-bound-d-overflow", "bound-s-overflow",
         "condition-integer-kappa-overflow", "error-integer-lower-bound-overflow",
         "error-lower-bound-past-4300-digits", "bound-s-past-4300-digits"],
)
def test_a_calculator_that_returned_or_overflowed_outside_its_domain_refuses(call):
    with pytest.raises(InvalidParametersError):
        call()


_EYE4 = lqframes.Frame.from_matrix(np.eye(4))
_NOT_A_FRAME = r"must be a Frame, built by Frame\.from_matrix; got ndarray$"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lqframes.LqProblem(A=np.eye(4), y=np.ones(4), D=np.eye(4), q=0.7), rf"^D {_NOT_A_FRAME}"),
        (lambda: lqframes.cosparse_signal(np.eye(4), 2, 0), rf"^frame {_NOT_A_FRAME}"),
        (lambda: lqframes.canonical_dual(np.eye(3)), rf"^frame {_NOT_A_FRAME}"),
        (lambda: lqframes.SeparationProblem(dicts=[np.eye(4), np.eye(4)], A=np.eye(4), y=np.ones(4), q=0.7),
         rf"^dictionary 0 {_NOT_A_FRAME}"),
        (lambda: lqframes.Frame.from_matrix("x"), "^matrix is not a numeric array"),
        (lambda: lqframes.LqProblem(A=np.eye(4), y="abc", D=_EYE4, q=0.7), "^y is not a numeric array"),
        (lambda: lqframes.SeparationProblem(dicts=[_EYE4, _EYE4], A="x", y=np.ones(4), q=0.7),
         "^A is not a numeric array"),
    ],
    ids=["problem-raw-dictionary", "cosparse-raw-frame", "dual-raw-frame", "separation-raw-dictionaries",
         "frame-string", "problem-string-y", "separation-string-A"],
)
def test_an_input_of_the_wrong_kind_is_an_lqframes_error(call, message):
    # these raised AttributeError (a raw array for a Frame) or numpy's ValueError (a string for an array)
    with pytest.raises(InvalidParametersError, match=message):
        call()


_RNG = np.random.default_rng(0)
_A35, _D68 = _RNG.standard_normal((3, 5)), _RNG.standard_normal((6, 8))
_TIGHT46 = lqframes.random_tight_frame(4, 6, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path: lqframes.estimate_rip(_A35, _D68, 0.7, 2, mode="sampled", budget=4),
         "A has 5 columns but the dictionary has 6 rows"),
        (lambda path: lqframes.estimate_nsp_theta(_A35, _D68, 0.7, 2), "A has 5 columns but the dictionary has 6 rows"),
        (lambda path: lqframes.LqProblem(A=np.eye(2), y=np.ones(2), D=lqframes.Frame.from_matrix(np.eye(3)), q=0.7),
         "dictionary ambient dimension 3 != signal dimension 2"),
        (lambda path: lqframes.build_stacked([np.eye(3), np.eye(3)], np.ones((2, 4))), "A has 4 columns, expected 3"),
        (lambda path: lqframes.ExperimentSpec(kind="phase_transition", grid=[dict(_CELL, d=10)]),
         "cell 0 d=10 is below n=20"),
        (lambda path: lqframes.run_figure1(**dict(_CELL, d=10)), "d=10 is below n=20"),
        (lambda path: lqframes.cosparse_signal(_TIGHT46, 2.5, 0), "sparsity is not an integer: 2.5"),
        (lambda path: lqframes.cosparse_signal(_TIGHT46, 5, 0), "sparsity must lie in [1, 4], got 5"),
        (lambda path: lqframes.load_matrix(path), "{path}:2: expected a row of 2 numbers, got 'a,b'"),
    ],
    ids=["rip-mismatch", "nsp-mismatch", "problem-mismatch", "stacked-mismatch", "spec-cell", "figure1-cell",
         "cosparse-float-s", "cosparse-s-above-n", "load-non-number"],
)
def test_one_refusal_one_type(call, message, tmp_path):
    # one rule broken in two places raises one class with one text, whichever function checks it
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\na,b\n", encoding="ascii")
    with pytest.raises(InvalidParametersError) as info:
        call(path)
    assert str(info.value) == message.format(path=path)
