"""Reproducible experiment harness: problem generation, sweeps, tables.

Every trial derives its own random stream from (master_seed, cell_index,
trial_index), so results are independent of execution order and cells may
run concurrently.  A trial that raises an LqframesError or LinAlgError counts
as unsuccessful; other exceptions propagate.  Wall time is informational only.
"""

import hashlib
import json
import math
import time
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import InvalidParametersError, LqframesError
from .frames import (
    Frame, _check_int, _check_q, _check_real, _one_blas_thread, cosparse_signal, mutual_coherence, random_tight_frame
)
from .rip import measurement_bound
from .separation import SeparationProblem, separation_measurement_bound, solve_split_analysis
from .solvers import LqProblem, irls_analysis

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "cell_key",
    "trial_seed",
    "run_figure1",
    "run_phase_transition",
    "run_bounds_table",
    "run_separation_sweep",
    "cells_to_csv",
    "cells_to_json",
]

# The spec-driven runners' kinds, each with the fields its cells carry, the
# names its trial takes them by; run_figure1 and run_bounds_table take no spec.
KINDS = {"phase_transition": ("n", "d", "m", "q", "s"), "separation_sweep": ("n", "s1", "s2", "m", "q")}

_METRICS = ("success_rate", "median_relative_error", "median_iterations", "wall_time_ms")


def _python_scalar(value):
    return value.item() if isinstance(value, np.generic) else value


def _check_cell(kind: str, cell: dict, where: str = "") -> dict:
    """The one rule for a ``kind`` cell: ``cell`` with numpy scalars as the equal Python ones.

    A cell holds exactly the ``KINDS[kind]`` fields.  Every field but q is an
    integer >= 1, q lies in (0, 1], d >= n, m, s, s1 and s2 are at most n (an
    m x n Gaussian A with m > n is row-rank deficient, and every solve
    refuses it), and a separation n is a power of two, for its Hadamard
    dictionary.  s <= d - n stays allowed (its trials fail at generation).
    A cell that breaks the rule raises InvalidParametersError.
    Python values pass unchanged: an integer q = 1 still hashes as 1.
    """
    names = KINDS[kind]
    for key in (*cell, *names):
        if key not in names or key not in cell:
            problem = "missing" if key in names else f"not a {kind} field"
            raise InvalidParametersError(f"{where}field {key!r} is {problem}")
    cell = {key: _python_scalar(value) for key, value in cell.items()}
    for key, value in cell.items():
        if key != "q":
            _check_int(f"{where}{key}", value, 1)
    _check_q(cell["q"], f"{where}q")
    n = cell["n"]
    if cell.get("d", n) < n:
        raise InvalidParametersError(f"{where}d={cell['d']} is below n={n}")
    for key in ("m", "s", "s1", "s2"):
        if cell.get(key, n) > n:
            raise InvalidParametersError(f"{where}{key}={cell[key]} exceeds n={n}")
    if kind == "separation_sweep" and n & (n - 1):
        raise InvalidParametersError(f"{where}n={n} is not a power of two")
    return cell


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep description: grid cells, each stored as ``_check_cell`` returns it, and Python scalars.

    ``trials_per_cell`` is at least 1, ``master_seed`` at least 0 and ``success_threshold`` lies in (0, inf).
    """

    kind: str
    grid: tuple
    trials_per_cell: int = 20
    success_threshold: float = 1e-4
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise InvalidParametersError(f"unknown experiment kind {self.kind!r}")
        try:
            grid = [dict(cell) for cell in self.grid]
        except (TypeError, ValueError) as exc:
            raise InvalidParametersError(f"grid must be a list of objects: {exc}") from exc
        if not grid:
            raise InvalidParametersError("grid must be nonempty")
        checked = (_check_cell(self.kind, cell, f"cell {ci} ") for ci, cell in enumerate(grid))
        object.__setattr__(self, "grid", tuple(checked))
        for name in ("trials_per_cell", "success_threshold", "master_seed"):
            object.__setattr__(self, name, _python_scalar(getattr(self, name)))
        _check_int("trials_per_cell", self.trials_per_cell, 1)
        _check_int("master_seed", self.master_seed, 0)
        _check_real("success_threshold", self.success_threshold, "(0, inf)")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec object; an absent optional field takes its default, an unknown one is refused."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParametersError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidParametersError(f"spec must be a JSON object, got {type(payload).__name__}")
        names = [f.name for f in fields(cls)]
        for key in payload:
            if key not in names:
                raise InvalidParametersError(f"spec has unknown field {key!r}; the fields are {', '.join(names)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in payload:
                raise InvalidParametersError(f"spec missing field {f.name!r}")
        return cls(**payload)


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one grid cell."""

    params: dict
    success_rate: float
    median_relative_error: float
    median_iterations: float
    wall_time_ms: float

    def to_dict(self) -> dict:
        """The parameters followed by the metrics, in ``_METRICS`` order."""
        return {**self.params, **{k: getattr(self, k) for k in _METRICS}}


def cell_key(params: dict) -> int:
    """Content hash of a grid cell, so seeds ignore the cell's position; numpy values hash as the equal Python ones."""
    canonical = json.dumps(_json_safe(params), sort_keys=True).encode("ascii")
    return int.from_bytes(hashlib.sha256(canonical).digest()[:8], "big")


def trial_seed(master_seed: int, cell_index: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed; cell_index is the cell's content hash."""
    _check_int("master_seed", master_seed, 0)
    _check_int("cell_index", cell_index, 0)
    _check_int("trial_index", trial_index, 0)
    return np.random.SeedSequence([int(master_seed), int(cell_index), int(trial_index)])


@_one_blas_thread()
def _run_cell(cell, trial_fn, master_seed, trials, threshold) -> CellResult:
    """Run ``trial_fn(**cell, seed_seq=...)`` for each seeded trial of one ``_check_cell`` cell, serially.

    A trial returns (relative error, iterations); one that raises an
    LqframesError or LinAlgError counts as a failure with infinite error.
    Any other exception is a defect and propagates.  A bad master seed is
    the caller's error and raises before any trial.
    """
    ck = cell_key(cell)
    start = time.perf_counter()
    outcomes = []
    for t in range(trials):
        seed_seq = trial_seed(master_seed, ck, t)
        try:
            outcomes.append(trial_fn(**cell, seed_seq=seed_seq))
        except (LqframesError, np.linalg.LinAlgError):
            outcomes.append((math.inf, 0))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    errors, iters = zip(*outcomes)
    successes = sum(1 for err in errors if err <= threshold)
    return CellResult(
        params=dict(cell),
        success_rate=successes / len(outcomes),
        median_relative_error=float(np.median(errors)),
        median_iterations=float(np.median(iters)),
        wall_time_ms=elapsed_ms,
    )


def _run_sweep(spec: ExperimentSpec, kind: str, trial_fn) -> list:
    """Run each cell of a ``kind`` spec through ``_run_cell``; the spec checked every cell when it was built."""
    if spec.kind != kind:
        raise InvalidParametersError(f"expected kind {kind}, got {spec.kind!r}")
    settings = (spec.master_seed, spec.trials_per_cell, spec.success_threshold)
    return [_run_cell(cell, trial_fn, *settings) for cell in spec.grid]


def _recovery_trial(n, d, m, q, s, seed_seq) -> tuple:
    """One generate/measure/solve round; returns (relative error, iterations)."""
    ss_a, ss_d, ss_f = seed_seq.spawn(3)
    A = np.random.default_rng(ss_a).standard_normal((m, n))
    frame = random_tight_frame(n, d, ss_d)
    f, _ = cosparse_signal(frame, s, ss_f)
    problem = LqProblem(A=A, y=A @ f, D=frame, q=q)
    result = irls_analysis(problem)
    rel = float(np.linalg.norm(result.f_hat - f) / np.linalg.norm(f))
    return rel, result.iterations


def run_figure1(
    master_seed: int = 0,
    trials: int = 20,
    threshold: float = 1e-4,
    n: int = 100,
    d: int = 110,
    m: int = 50,
    q: float = 0.7,
    s: int = 25,
) -> CellResult:
    """The reference reconstruction experiment: IRLS on a random tight frame.

    Defaults reproduce the canonical configuration (n=100, d=110, m=50,
    q=0.7, s=25) over ``trials`` seeded instances.  The cell meets the
    sweeps' cell rule and ``threshold`` lies in (0, inf), or
    InvalidParametersError is raised before any trial.
    """
    _check_int("trials", trials, 1)
    cell = _check_cell("phase_transition", {"n": n, "d": d, "m": m, "q": q, "s": s})
    _check_real("threshold", threshold, "(0, inf)")
    return _run_cell(cell, _recovery_trial, master_seed, trials, threshold)


def run_phase_transition(spec: ExperimentSpec) -> list:
    """Success-rate sweep over (n, d, m, q, s) cells, sorted by (q, s, m)."""
    results = _run_sweep(spec, "phase_transition", _recovery_trial)
    return sorted(results, key=lambda r: (r.params["q"], r.params["s"], r.params["m"]))


def run_bounds_table(q_list, s: int, d: int, kappa: float = 1.0) -> list:
    """Tabulate the measurement lower bounds across one or more q values, each in (0, 1], and ``kappa`` in [1, inf)."""
    rows = []
    for q in q_list:
        _check_q(q)
        rows.append(dict(q=float(q), m_min=measurement_bound(q, s, d, kappa),
                         m_min_separation=separation_measurement_bound(q, s, d)))
    if not rows:
        raise InvalidParametersError("the bounds table needs at least one q value")
    return rows


def _spikes_and_waves(n: int) -> tuple:
    """The separation sweep's two tight frames of R^n: spikes (the identity) and the normalized n x n Sylvester
    Hadamard matrix, for n a power of two."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return (Frame(matrix=np.eye(n), lower_bound=1.0, upper_bound=1.0),
            Frame(matrix=h / math.sqrt(n), lower_bound=1.0, upper_bound=1.0))


def _separation_trial(n, s1, s2, m, q, seed_seq) -> tuple:
    ss_a, ss_f1, ss_f2 = seed_seq.spawn(3)
    spikes, waves = _spikes_and_waves(n)
    A = np.random.default_rng(ss_a).standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, s1, ss_f1)
    f2, _ = cosparse_signal(waves, s2, ss_f2)
    problem = SeparationProblem(dicts=[spikes, waves], A=A, y=A @ (f1 + f2), q=q)
    (g1, g2), result = solve_split_analysis(problem)
    rel = max(
        float(np.linalg.norm(g1 - f1) / np.linalg.norm(f1)),
        float(np.linalg.norm(g2 - f2) / np.linalg.norm(f2)),
    )
    return rel, result.iterations


def run_separation_sweep(spec: ExperimentSpec) -> list:
    """Joint-recovery sweep with spike + normalized Hadamard dictionaries.

    Cells carry (n, s1, s2, m, q); n must be a power of two.  Success means
    both components recovered within the threshold; the cell coherence
    (1/sqrt(n)) is reported alongside the parameters.
    """
    results = []
    for r in _run_sweep(spec, "separation_sweep", _separation_trial):
        mu1 = mutual_coherence(_spikes_and_waves(r.params["n"]))
        results.append(replace(r, params={**r.params, "mu1": mu1}))
    return results


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _format_number(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_safe(value):
    """``value`` with numpy values as Python ones by ``.tolist()`` and NaN and inf as None, so JSON stays strict."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_text(value) -> str:
    """The one JSON writer: ``_json_safe(value)`` as indented strict JSON (a NaN left over raises)."""
    return json.dumps(_json_safe(value), indent=2, allow_nan=False)


def _csv_text(columns, rows) -> str:
    """A header of ``columns`` and one line per row mapping, each number as ``_format_number`` writes it."""
    lines = [",".join(columns)] + [",".join(_format_number(row[k]) for k in columns) for row in rows]
    return "\n".join(lines) + "\n"


def cells_to_csv(cells) -> str:
    """Render cell results as CSV (header row, comma separated, '.' decimal, inf as ``inf``)."""
    if not cells:
        return "\n"
    param_keys = sorted(cells[0].params.keys())
    for cell in cells:
        if sorted(cell.params.keys()) != param_keys:
            raise InvalidParametersError("cells with differing parameter keys cannot share a CSV")
    return _csv_text(param_keys + list(_METRICS), [cell.to_dict() for cell in cells])


def cells_to_json(cells) -> str:
    """Render cell results as strict JSON: NaN and inf are written as null."""
    return _json_text([cell.to_dict() for cell in cells])
