"""Command line interface.

Subcommands: figure1, phase, bounds, separate-sweep, rip-estimate, solve,
separate.  Matrices travel as headerless CSV; results as JSON or CSV.
"""

import argparse
import functools
import math
import sys

import numpy as np

from .errors import ConditionUnevaluableError, InvalidDimensionsError, LqframesError
from .experiments import (
    ExperimentSpec,
    _csv_text,
    _json_text,
    cells_to_csv,
    cells_to_json,
    run_bounds_table,
    run_figure1,
    run_phase_transition,
    run_separation_sweep,
)
from .frames import Frame, _one_blas_thread, canonical_dual, load_matrix, mutual_coherence
from .rip import check_recovery_condition, estimate_rip
from .separation import SeparationProblem, build_stacked, check_separation_conditions, solve_split_analysis
from .solvers import LqProblem, SolverConfig, irl1_analysis, irls_analysis

__all__ = ["main"]


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_figure1(args):
    cell = run_figure1(master_seed=args.seed, trials=args.trials, threshold=args.threshold)
    _write_text(args.out, _json_text(cell.to_dict()))
    return 0


def _cmd_sweep(args):
    with open(args.spec, "r", encoding="ascii") as fh:
        spec = ExperimentSpec.from_json(fh.read())
    cells = args.run(spec)
    _write_text(args.out, cells_to_json(cells) if args.format == "json" else cells_to_csv(cells))
    return 0


def _cmd_bounds(args):
    q_list = [float(tok) for tok in args.q.split(",") if tok.strip()]
    rows = run_bounds_table(q_list, args.s, args.d, args.kappa)
    _write_text(args.out, _csv_text(("q", "m_min", "m_min_separation"), rows))
    return 0


def _cmd_rip_estimate(args):
    A = load_matrix(args.matrix)
    D = load_matrix(args.dict)
    frame = Frame.from_matrix(D)
    target = canonical_dual(frame).matrix if args.dual else D
    rip = functools.partial(estimate_rip, A, target, args.q, mode=args.mode, budget=args.budget, seed=args.seed)
    payload = {**rip(args.s).to_dict(), "condition": None}
    if args.a is not None:
        rep_a, rep_sa = rip(args.a), rip(args.s + args.a)
        try:
            verdict = check_recovery_condition(rep_a.delta, rep_sa.delta, args.s, args.a, frame.condition, args.q)
            payload["condition"] = verdict.to_dict()
        except ConditionUnevaluableError:
            # the estimated constant already rules the condition out
            payload["condition"] = {
                "lhs": None, "rhs": 1.0 - rep_sa.delta, "holds": False, "theta": None, "Delta": None
            }
    _write_text(args.out, _json_text(payload))
    return 0


def _solver_config(args):
    overrides = {"max_outer_iters": args.max_iters, "tol": args.tol}
    return SolverConfig(**{k: v for k, v in overrides.items() if v is not None})


def _cmd_solve(args):
    A = load_matrix(args.matrix)
    D = Frame.from_matrix(load_matrix(args.dict))
    y = load_matrix(args.obs).ravel()
    norm_index = math.inf if args.r == "inf" else 2.0
    problem = LqProblem(A=A, y=y, D=D, q=args.q, epsilon=args.eps, norm_index=norm_index)
    solver = irls_analysis if args.method == "irls" else irl1_analysis
    result = solver(problem, _solver_config(args))
    payload = {
        "f_hat": result.f_hat,
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_trace": result.objective_trace,
        "residual_trace": result.residual_trace,
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _estimate_sparsity(coeffs, rel_cut=1e-6):
    mag = np.abs(coeffs)
    top = mag.max()
    if top <= 0.0:
        return 1
    return max(1, int(np.sum(mag > rel_cut * top)))


def _cmd_separate(args):
    paths = [tok for tok in args.dicts.split(",") if tok.strip()]
    if len(paths) < 2:
        raise LqframesError("separate needs at least two dictionaries")
    sparsities = None
    if args.sparsities is not None:
        sparsities = [int(tok) for tok in args.sparsities.split(",")]
        if len(sparsities) != len(paths):
            raise InvalidDimensionsError(
                f"--sparsities needs one value per dictionary, got {len(sparsities)} for {len(paths)}"
            )
    dicts = [Frame.from_matrix(load_matrix(p)) for p in paths]
    A = load_matrix(args.matrix)
    y = load_matrix(args.obs).ravel()
    problem = SeparationProblem(dicts=dicts, A=A, y=y, q=args.q, epsilon=args.eps)
    components, _ = solve_split_analysis(problem, _solver_config(args))

    mu1 = mutual_coherence(dicts)
    if sparsities is None:
        sparsities = [
            _estimate_sparsity(fr.matrix.T @ comp) for fr, comp in zip(dicts, components)
        ]
    s_total = sum(sparsities)
    a = args.a if args.a is not None else 2 * s_total
    dbar, _, _ = build_stacked(dicts)
    d_total = dbar.shape[1]
    rip = functools.partial(estimate_rip, A, dbar, args.q, mode="sampled", budget=args.rip_budget, seed=args.seed)
    rep_a, rep_sa = rip(min(a, d_total)), rip(min(s_total + a, d_total))
    verdict = check_separation_conditions(mu1, sparsities, a, rep_a.delta, min(rep_sa.delta, 1.0 - 1e-12), args.q)
    payload = {"components": list(components), "verdict": verdict.to_dict()}
    _write_text(args.out, _json_text(payload))
    return 0


def _add_solver_options(p):
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters", help="cap on the outer loop")
    p.add_argument("--tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lqframes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="reference reconstruction experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("phase", help="phase-transition sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep, run=run_phase_transition, format="csv")

    p = sub.add_parser("bounds", help="measurement lower-bound table")
    p.add_argument("--q", required=True, help="comma-separated q values")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("separate-sweep", help="joint-recovery sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep, run=run_separation_sweep)

    p = sub.add_parser("rip-estimate", help="estimate a q-RIP constant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="comparison order a for the condition check")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="sampled")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dual", action="store_true", help="estimate against the canonical dual")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rip_estimate)

    p = sub.add_parser("solve", help="solve one l_q-analysis instance")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--r", choices=("2", "inf"), default="2")
    p.add_argument("--method", choices=("irls", "irl1"), default="irls")
    p.add_argument("--out", default=None)
    _add_solver_options(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("separate", help="split a signal across dictionaries")
    p.add_argument("--dicts", required=True, help="comma-separated CSV paths")
    p.add_argument("--matrix", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--sparsities", default=None, help="comma-separated per-component budgets")
    p.add_argument("--a", type=int, default=None, help="comparison order a for the verdict")
    p.add_argument("--rip-budget", type=int, default=32, dest="rip_budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_solver_options(p)
    p.set_defaults(func=_cmd_separate)

    return parser


@_one_blas_thread()
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LqframesError, OSError, ValueError) as exc:
        # unreadable files, bad paths and malformed values are user errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
