"""Command line interface.

Subcommands: figure1, phase, bounds, separate-sweep, rip-estimate, solve,
separate.  Matrices travel as headerless CSV; results as JSON or CSV.  Each
handler returns its output text and main writes it: to the --out file as it
is, or to stdout with a final newline.
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
from .separation import SeparationProblem, check_separation_conditions, solve_split_analysis
from .solvers import LqProblem, SolverConfig, irl1_analysis, irls_analysis

__all__ = ["main"]


def _cmd_figure1(args):
    return _json_text(run_figure1(master_seed=args.seed, trials=args.trials, threshold=args.threshold).to_dict())


def _cmd_sweep(args):
    with open(args.spec, "r", encoding="ascii") as fh:
        spec = ExperimentSpec.from_json(fh.read())
    cells = args.run(spec)
    return cells_to_json(cells) if args.format == "json" else cells_to_csv(cells)


def _cmd_bounds(args):
    q_list = [float(tok) for tok in args.q.split(",") if tok.strip()]
    return _csv_text(("q", "m_min", "m_min_separation"), run_bounds_table(q_list, args.s, args.d, args.kappa))


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
    return _json_text(payload)


def _cmd_solve(args):
    A = load_matrix(args.matrix)
    D = Frame.from_matrix(load_matrix(args.dict))
    y = load_matrix(args.obs).ravel()
    norm_index = math.inf if args.r == "inf" else 2.0
    problem = LqProblem(A=A, y=y, D=D, q=args.q, epsilon=args.eps, norm_index=norm_index)
    solver = irls_analysis if args.method == "irls" else irl1_analysis
    result = solver(problem, SolverConfig(max_outer_iters=args.max_iters, tol=args.tol))
    payload = {
        "f_hat": result.f_hat,
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_trace": result.objective_trace,
        "residual_trace": result.residual_trace,
    }
    return _json_text(payload)


def _estimate_sparsity(coeffs):
    mag = np.abs(coeffs)
    return max(1, int(np.count_nonzero(mag > 1e-6 * mag.max())))


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
    components, _ = solve_split_analysis(problem, SolverConfig(max_outer_iters=args.max_iters, tol=args.tol))

    mu1 = mutual_coherence(dicts)
    if sparsities is None:
        sparsities = [_estimate_sparsity(fr.matrix.T @ comp) for fr, comp in zip(dicts, components)]
    s_total = sum(sparsities)
    a = args.a if args.a is not None else 2 * s_total
    dbar = np.hstack([fr.matrix for fr in dicts])
    d_total = dbar.shape[1]
    rip = functools.partial(estimate_rip, A, dbar, args.q, mode="sampled", budget=args.rip_budget, seed=args.seed)
    rep_a, rep_sa = rip(min(a, d_total)), rip(min(s_total + a, d_total))
    # an order-(s + a) constant >= 1 rules Theorem 4 out and leaves theta_tilde undefined
    ruled_out = rep_sa.delta >= 1.0
    delta_sa = 0.0 if ruled_out else rep_sa.delta
    verdict = check_separation_conditions(mu1, sparsities, a, rep_a.delta, delta_sa, args.q).to_dict()
    if ruled_out:
        verdict.update(theta_tilde=None, thm4_holds=False)
    return _json_text({"components": list(components), "verdict": verdict})


def build_parser() -> argparse.ArgumentParser:
    # options shared by several subcommands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--matrix", required=True)
    instance.add_argument("--obs", required=True)
    instance.add_argument("--q", type=float, required=True)
    instance.add_argument("--eps", type=float, default=0.0)
    instance.add_argument(
        "--max-iters", type=int, default=SolverConfig.max_outer_iters, dest="max_iters", help="cap on the outer loop"
    )
    instance.add_argument("--tol", type=float, default=SolverConfig.tol)

    parser = argparse.ArgumentParser(prog="lqframes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", parents=[seed, out], help="reference reconstruction experiment")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("phase", parents=[spec, out], help="phase-transition sweep from a JSON spec")
    p.set_defaults(func=_cmd_sweep, run=run_phase_transition, format="csv")

    p = sub.add_parser("bounds", parents=[out], help="measurement lower-bound table")
    p.add_argument("--q", required=True, help="comma-separated q values")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("separate-sweep", parents=[spec, out], help="joint-recovery sweep from a JSON spec")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep, run=run_separation_sweep)

    p = sub.add_parser("rip-estimate", parents=[seed, out], help="estimate a q-RIP constant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="comparison order a for the condition check")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="sampled")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--dual", action="store_true", help="estimate against the canonical dual")
    p.set_defaults(func=_cmd_rip_estimate)

    p = sub.add_parser("solve", parents=[instance, out], help="solve one l_q-analysis instance")
    p.add_argument("--dict", required=True)
    p.add_argument("--r", choices=("2", "inf"), default="2")
    p.add_argument("--method", choices=("irls", "irl1"), default="irls")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("separate", parents=[instance, seed, out], help="split a signal across dictionaries")
    p.add_argument("--dicts", required=True, help="comma-separated CSV paths")
    p.add_argument("--sparsities", default=None, help="comma-separated per-component budgets")
    p.add_argument("--a", type=int, default=None, help="comparison order a for the verdict")
    p.add_argument("--rip-budget", type=int, default=32, dest="rip_budget")
    p.set_defaults(func=_cmd_separate)

    return parser


@_one_blas_thread()
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        else:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
    except (LqframesError, OSError, ValueError) as exc:
        # unreadable files, bad paths and malformed values are user errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
