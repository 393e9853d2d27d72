"""Reproducible experiment harness: problem generation, sweeps, tables.

Every trial derives its own random stream from (master_seed, cell_index,
trial_index), so results are independent of execution order and cells may
run concurrently.  Failed trials count as unsuccessful and never abort a
sweep.  Wall time is informational only.
"""

import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import hadamard

from .errors import InvalidParametersError, InvalidSpecError
from .frames import Frame, cosparse_signal, mutual_coherence, random_tight_frame
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
    "cells_from_csv",
    "cells_to_json",
    "cells_from_json",
]

# The spec-driven runners' kinds, each with the fields its cells carry;
# run_figure1 and run_bounds_table take no spec.
KINDS = {"phase_transition": ("n", "d", "m", "q", "s"), "separation_sweep": ("n", "s1", "s2", "m", "q")}

_METRICS = ("success_rate", "median_relative_error", "median_iterations", "wall_time_ms")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep description: grid cells, trial count, threshold, master seed."""

    kind: str
    grid: tuple
    trials_per_cell: int = 20
    success_threshold: float = 1e-4
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown experiment kind {self.kind!r}")
        try:
            object.__setattr__(self, "grid", tuple(dict(cell) for cell in self.grid))
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"grid must be a list of objects: {exc}") from exc
        if not self.grid:
            raise InvalidSpecError("grid must be nonempty")
        for ci, cell in enumerate(self.grid):
            for key, value in cell.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise InvalidSpecError(f"cell {ci} field {key!r} is not a number: {value!r}")
        if self.trials_per_cell < 1:
            raise InvalidSpecError("trials_per_cell must be >= 1")
        if self.success_threshold <= 0:
            raise InvalidSpecError("success_threshold must be positive")
        if self.master_seed < 0:
            raise InvalidSpecError(f"master_seed must be >= 0, got {self.master_seed}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidSpecError(f"spec must be a JSON object, got {type(payload).__name__}")
        try:
            return cls(
                kind=payload["kind"],
                grid=payload["grid"],
                trials_per_cell=int(payload.get("trials_per_cell", 20)),
                success_threshold=float(payload.get("success_threshold", 1e-4)),
                master_seed=int(payload.get("master_seed", 0)),
            )
        except KeyError as exc:
            raise InvalidSpecError(f"spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"spec field of the wrong type: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "grid": list(self.grid),
                "trials_per_cell": self.trials_per_cell,
                "success_threshold": self.success_threshold,
                "master_seed": self.master_seed,
            },
            indent=2,
        )


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

    @classmethod
    def from_dict(cls, row: dict) -> "CellResult":
        """Inverse of ``to_dict``: every key outside ``_METRICS`` is a parameter."""
        params = {k: v for k, v in row.items() if k not in _METRICS}
        return cls(params=params, **{k: float(row[k]) for k in _METRICS})


def cell_key(params: dict) -> int:
    """Content hash of a grid cell, so seeds ignore the cell's position."""
    canonical = json.dumps(params, sort_keys=True).encode("ascii")
    return int.from_bytes(hashlib.sha256(canonical).digest()[:8], "big")


def trial_seed(master_seed: int, cell_index: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed; cell_index is the cell's content hash."""
    if master_seed < 0:
        raise InvalidParametersError(f"master_seed must be >= 0, got {master_seed}")
    return np.random.SeedSequence([int(master_seed), int(cell_index), int(trial_index)])


def _run_cell(params, trial_fn, fields, master_seed, trials, threshold) -> CellResult:
    """Run ``trial_fn(*fields, seed_seq)`` for each seeded trial of one cell, serially.

    A trial returns (relative error, iterations); one that raises counts as
    a failure with infinite error, so a bad trial never aborts a sweep.  A
    bad master seed is the caller's error and raises before any trial.
    """
    ck = cell_key(params)
    start = time.perf_counter()
    outcomes = []
    for t in range(trials):
        seed_seq = trial_seed(master_seed, ck, t)
        try:
            outcomes.append(trial_fn(*fields, seed_seq))
        except Exception:
            outcomes.append((math.inf, 0))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    errors = [err for err, _ in outcomes]
    iters = [it for _, it in outcomes]
    successes = sum(1 for err in errors if err <= threshold)
    return CellResult(
        params=dict(params),
        success_rate=successes / len(outcomes),
        median_relative_error=float(np.median(errors)),
        median_iterations=float(np.median(iters)),
        wall_time_ms=elapsed_ms,
    )


def _cell_fields(spec: ExperimentSpec, kind: str) -> list:
    """Each cell's ``KINDS[kind]`` values; every cell is checked before any trial runs."""
    if spec.kind != kind:
        raise InvalidSpecError(f"expected kind {kind}, got {spec.kind!r}")
    for ci, cell in enumerate(spec.grid):
        missing = [key for key in KINDS[kind] if key not in cell]
        if missing:
            raise InvalidSpecError(f"cell {ci} missing field {missing[0]!r}")
        if kind == "separation_sweep" and (cell["n"] < 1 or cell["n"] & (cell["n"] - 1)):
            raise InvalidSpecError(f"cell {ci}: n={cell['n']} is not a power of two")
    return [tuple(cell[key] for key in KINDS[kind]) for cell in spec.grid]


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
    q=0.7, s=25) over ``trials`` seeded instances.
    """
    params = {"n": n, "d": d, "m": m, "q": q, "s": s}
    return _run_cell(params, _recovery_trial, (n, d, m, q, s), master_seed, trials, threshold)


def run_phase_transition(spec: ExperimentSpec) -> list:
    """Success-rate sweep over (n, d, m, q, s) cells, sorted by (q, s, m)."""
    results = [
        _run_cell(cell, _recovery_trial, fields, spec.master_seed, spec.trials_per_cell, spec.success_threshold)
        for cell, fields in zip(spec.grid, _cell_fields(spec, "phase_transition"))
    ]
    results.sort(key=lambda r: (r.params["q"], r.params["s"], r.params["m"]))
    return results


def run_bounds_table(q_list, s: int, d: int, kappa: float = 1.0) -> list:
    """Tabulate the measurement lower bounds across q values."""
    rows = []
    for q in q_list:
        rows.append(
            {
                "q": float(q),
                "m_min": measurement_bound(q, s, d, kappa),
                "m_min_separation": separation_measurement_bound(q, s, d),
            }
        )
    return rows


def _separation_trial(n, s1, s2, m, q, seed_seq) -> tuple:
    ss_a, ss_f1, ss_f2 = seed_seq.spawn(3)
    spikes = Frame(matrix=np.eye(n), lower_bound=1.0, upper_bound=1.0)
    waves = Frame(matrix=hadamard(n) / math.sqrt(n), lower_bound=1.0, upper_bound=1.0)
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
    for cell, fields in zip(spec.grid, _cell_fields(spec, "separation_sweep")):
        n = fields[0]
        mu1 = mutual_coherence([np.eye(n), hadamard(n) / math.sqrt(n)])
        result = _run_cell(
            cell, _separation_trial, fields, spec.master_seed, spec.trials_per_cell, spec.success_threshold
        )
        results.append(replace(result, params={**cell, "mu1": mu1}))
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


def _parse_number(token: str):
    if token in ("True", "False"):
        return token == "True"
    try:
        return int(token)
    except ValueError:
        return float(token)


def cells_to_csv(cells) -> str:
    """Render cell results as CSV (header row, comma separated, '.' decimal)."""
    if not cells:
        return "\n"
    param_keys = sorted(cells[0].params.keys())
    for cell in cells:
        if sorted(cell.params.keys()) != param_keys:
            raise InvalidSpecError("cells with differing parameter keys cannot share a CSV")
    out = io.StringIO()
    out.write(",".join(list(param_keys) + list(_METRICS)) + "\n")
    for cell in cells:
        row = [cell.params[k] for k in param_keys] + [getattr(cell, k) for k in _METRICS]
        out.write(",".join(_format_number(v) for v in row) + "\n")
    return out.getvalue()


def cells_from_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = (dict(zip(header, map(_parse_number, line.split(",")))) for line in lines[1:])
    return [CellResult.from_dict(row) for row in rows]


def cells_to_json(cells) -> str:
    return json.dumps([cell.to_dict() for cell in cells], indent=2)


def cells_from_json(text: str) -> list:
    return [CellResult.from_dict(row) for row in json.loads(text)]
