"""Compressed data separation: stacked operators, split-analysis solving,
and the coherence/isometry conditions that guarantee joint recovery.

A signal observed as y = A(f_1 + ... + f_iota) is split into components
that are analysis-sparse in their own tight dictionaries by minimizing the
summed l_q analysis objective under the shared measurement constraint.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParametersError
from .frames import Frame, _ambient_dim, _atoms, _check_int, _check_q, _check_real, _floats, _matrix, _require_frame
from .rip import _comparison_order, measurement_bound, split_nsp_constant
from .solvers import LqProblem, SolverConfig, irls_analysis

__all__ = [
    "SeparationProblem",
    "SeparationVerdict",
    "build_stacked",
    "solve_split_analysis",
    "check_separation_conditions",
    "separation_measurement_bound",
]

_TIGHT_TOL = 1e-8


@dataclass(frozen=True)
class SeparationProblem:
    """A joint-recovery instance over unit tight dictionaries.

    ``dicts`` share the ambient dimension n of the columns of ``A``;
    ``y`` observes the sum of one component per dictionary, within
    ``epsilon`` in the l2 norm.  Sparsity budgets belong to the
    condition check, ``check_separation_conditions``, not to the instance.
    ``stacked`` is the equivalent l_q-analysis instance, built and checked
    once here: the block diagonal of the dictionaries as its unit tight
    frame and [A | ... | A] as its measurement.  ``stacked`` alone defines
    the instance: ``dicts`` records the dictionaries it was built from, and
    changing that list afterwards changes nothing the solve reads.
    """

    dicts: list
    A: np.ndarray
    y: np.ndarray
    q: float
    epsilon: float = 0.0
    stacked: LqProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dicts", list(self.dicts))
        for i, fr in enumerate(self.dicts):
            _require_frame(f"dictionary {i}", fr)
        psi, a_stacked = build_stacked(self.dicts, self.A)
        object.__setattr__(self, "A", _floats("A", self.A))
        for i, fr in enumerate(self.dicts):
            if abs(fr.lower_bound - 1.0) > _TIGHT_TOL or abs(fr.upper_bound - 1.0) > _TIGHT_TOL:
                raise InvalidParametersError(
                    f"dictionary {i} is not tight with bound 1 (bounds {fr.lower_bound:.6g}, {fr.upper_bound:.6g})"
                )
        psi_frame = Frame(matrix=psi, lower_bound=1.0, upper_bound=1.0)
        stacked = LqProblem(A=a_stacked, y=self.y, D=psi_frame, q=self.q, epsilon=self.epsilon)
        object.__setattr__(self, "y", stacked.y)
        object.__setattr__(self, "stacked", stacked)


def build_stacked(dicts, A):
    """Stack dictionaries and the measurement for joint solving.

    Returns ``(psi, a_stacked)``: the block diagonal of the D_k
    (iota*n x sum d_k) and [A | ... | A] (m x iota*n), so that
    a_stacked @ stack(f_k) = A @ sum(f_k).
    """
    mats = [_atoms(fr, f"dictionary {i}") for i, fr in enumerate(dicts)]
    n = _ambient_dim(mats)
    A = _matrix("A", A)
    if A.shape[1] != n:
        raise InvalidParametersError(f"A has {A.shape[1]} columns, expected {n}")
    psi = np.zeros((n * len(mats), sum(mat.shape[1] for mat in mats)))
    col = 0
    for k, mat in enumerate(mats):
        psi[k * n : (k + 1) * n, col : col + mat.shape[1]] = mat
        col += mat.shape[1]
    return psi, np.tile(A, (1, len(mats)))


def solve_split_analysis(problem: SeparationProblem, config: SolverConfig | None = None):
    """Solve the split-analysis problem; returns (components, SolverResult).

    Runs the IRLS analysis solver on ``problem.stacked``: the block
    diagonal of the dictionaries is itself a unit tight frame for the
    stacked signal space, and the stacked measurement applies A to the sum
    of the components, whose count is the stacked width over that of A.
    With a single dictionary this reduces exactly to the plain solver.
    """
    result = irls_analysis(problem.stacked, config)
    return np.split(result.f_hat, problem.stacked.A.shape[1] // problem.A.shape[1]), result


@dataclass(frozen=True)
class SeparationVerdict:
    """Condition diagnostics for joint recovery.

    ``theta_tilde`` is the split null-space constant; it is None when the
    cluster coherence U >= 1, where the formula is not applicable, or when
    delta_{s+a} >= 1 rules the joint condition out.  ``thm3_holds``
    evaluates the two-dictionary coherence-only condition; ``thm4_holds``
    is the joint isometry + coherence condition for general component
    counts.
    """

    mu1: float
    U: float
    theta_tilde: float | None
    thm3_holds: bool
    thm4_holds: bool


def check_separation_conditions(
    mu1: float,
    sparsities,
    a: int,
    delta_a: float,
    delta_sa: float,
    q: float,
) -> SeparationVerdict:
    """Evaluate the separation recovery conditions verbatim.

    ``sparsities`` are the per-component budgets s_1..s_iota, one per
    dictionary, so the component count iota is ``len(sparsities)``; ``a`` is
    the comparison order (a > sum s_k); the deltas are q-RIP constants of the
    concatenated dictionary at orders a and s + a.  The two-dictionary
    coherence condition (thm3) is evaluated with the total sparsity.  mu1,
    delta_a and delta_sa lie in [0, inf]; a delta_sa of 1 or more rules the
    joint condition (thm4) out and leaves theta_tilde None.
    """
    _check_q(q)
    sparsities = list(sparsities)
    for s in sparsities:
        _check_int("sparsity", s, 1)
    s, iota = sum(sparsities), len(sparsities)
    _check_int("number of components", iota, 1)
    _check_int("a", a, s + 1)
    _check_real("mu1", mu1, "[0, inf]")
    _check_real("delta_a", delta_a, "[0, inf]")
    _check_real("delta_sa", delta_sa, "[0, inf]")

    rho = s / a
    U = mu1 * (s + a) / 2.0

    t3 = _comparison_order(q, 2.0)  # ceil((5 * 2^(3q/2))^(2/(2-q)))
    small = math.exp(-(math.log(8.0) + (2.0 / q) * math.log(5.0)))
    thm3_holds = mu1 * s * (t3 + 1.0) * (small + 1.0) < 1.0

    thm4, theta_tilde = False, None
    if delta_sa < 1.0:
        delta_ratio = (1.0 + delta_a) / (1.0 - delta_sa)
        r = rho ** (2.0 / q - 1.0)
        mipc = mu1 * (s + a) * (r + 1.0) < 1.0
        cd = delta_ratio * rho ** (1.0 - q / 2.0) * (r + 1.0) ** (q / 2.0) < (2.0 * iota) ** (-q / 2.0)
        thm4 = mipc and cd
        theta_tilde = split_nsp_constant(rho, delta_ratio, U, q, iota) if U < 1.0 else None

    return SeparationVerdict(
        mu1=mu1,
        U=U,
        theta_tilde=theta_tilde,
        thm3_holds=thm3_holds,
        thm4_holds=thm4,
    )


def separation_measurement_bound(q: float, s: int, d_total: int) -> float:
    """Gaussian measurement count sufficient for the separation condition.

    ``measurement_bound`` over all d_total atoms at kappa = 2, whose order
    is the separation order ceil((5 * 2^(3q/2))^(2/(2-q))); the union term
    stops at d_total.  The blocks are unit tight, so no condition number of
    theirs enters.
    """
    _check_int("s", s, 1)
    _check_int("d_total", d_total, s)
    return measurement_bound(q, s, d_total, 2.0)
