"""Layer boundaries of lqframes for the traced run, and the per-layer metrics.

Each target wraps a public function at the name its caller looks it up by,
so a span sits on the real call path: ``solvers.irls`` spans opened from
``lqframes.separation.irls_analysis`` nest inside
``separation.solve_split_analysis``.  A span name is ``<module>.<function>``
and the module part names the layer it is charged to.

Which end-to-end metric each layer metric should move, and on which
workload, is written down in METRICS.md next to this file.
"""

import os
from collections import defaultdict

from spans import Target, self_times


def _solver(args, kwargs, result):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


def _rip_report(args, kwargs, report):
    return {"directions": report.trials, "degenerate": report.degenerate}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cli_main(args, kwargs, code):
    argv = args[0]
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    size = os.path.getsize(out) if out is not None and os.path.exists(out) else 0
    return {"exit_nonzero": int(code != 0), "out_bytes": size}


def _figure1(args, kwargs, result):
    return {"trials": kwargs["trials"]}


def _sweep(args, kwargs, result):
    spec = args[0]
    return {"trials": spec.trials_per_cell * len(spec.grid)}


def targets(lq):
    """Every function wrapped for the traced run, at its callers' names."""
    ex, sep, rip, cli = lq.experiments, lq.separation, lq.rip, lq.cli
    return [
        Target(ex, "run_figure1", "experiments.run_figure1", _figure1),
        Target(ex, "run_separation_sweep", "experiments.run_separation_sweep", _sweep),
        Target(ex, "random_tight_frame", "frames.random_tight_frame"),
        Target(ex, "cosparse_signal", "frames.cosparse_signal", keep=True),
        Target(ex, "mutual_coherence", "frames.mutual_coherence"),
        Target(ex, "irls_analysis", "solvers.irls", _solver, keep=True),
        Target(ex, "solve_split_analysis", "separation.solve_split_analysis", keep=True),
        Target(sep, "irls_analysis", "solvers.irls", _solver),
        Target(rip, "estimate_rip", "rip.estimate_rip", _rip_report),
        Target(rip, "rip_scan", "rip.rip_scan"),
        Target(rip, "check_recovery_condition", "rip.check_recovery_condition"),
        Target(rip, "estimate_nsp_theta", "rip.estimate_nsp_theta"),
        Target(cli, "main", "cli.main", _cli_main),
        Target(cli, "load_matrix", "frames.load_matrix", _file_bytes),
        Target(cli.Frame, "from_matrix", "frames.from_matrix"),
        Target(cli, "irls_analysis", "solvers.irls", _solver),
        Target(cli, "irl1_analysis", "solvers.irl1", _solver),
    ]


MODULES = ("experiments", "frames", "solvers", "separation", "rip", "cli")

# (name, unit, better) of every per-layer metric, in reporting order.
METRICS = (
    ("experiments.self_s", "s", "lower"),
    ("experiments.trials", "count", "higher"),
    ("experiments.trials_failed", "count", "lower"),
    ("frames.self_s", "s", "lower"),
    ("frames.random_tight_frame.calls", "count", "lower"),
    ("frames.random_tight_frame.s", "s", "lower"),
    ("frames.cosparse_signal.calls", "count", "lower"),
    ("frames.cosparse_signal.s", "s", "lower"),
    ("frames.cosparse_signal.failed", "count", "lower"),
    ("frames.mutual_coherence.s", "s", "lower"),
    ("frames.load_matrix.calls", "count", "lower"),
    ("frames.load_matrix.s", "s", "lower"),
    ("frames.load_matrix.bytes", "bytes", "lower"),
    ("frames.from_matrix.s", "s", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.irls.calls", "count", "lower"),
    ("solvers.irls.s", "s", "lower"),
    ("solvers.irls.iters", "count", "lower"),
    ("solvers.irls.ms_per_iter", "ms", "lower"),
    ("solvers.irls.unconverged", "count", "lower"),
    ("solvers.irl1.calls", "count", "lower"),
    ("solvers.irl1.s", "s", "lower"),
    ("solvers.irl1.iters", "count", "lower"),
    ("solvers.irl1.ms_per_iter", "ms", "lower"),
    ("solvers.irl1.unconverged", "count", "lower"),
    ("solvers.converged_share", "share", "higher"),
    ("separation.self_s", "s", "lower"),
    ("separation.solve_split_analysis.calls", "count", "lower"),
    ("separation.solve_split_analysis.s", "s", "lower"),
    ("separation.solve_split_analysis.self_s", "s", "lower"),
    ("rip.self_s", "s", "lower"),
    ("rip.estimate_rip.calls", "count", "lower"),
    ("rip.estimate_rip.s", "s", "lower"),
    ("rip.estimate_rip.supports", "count", "lower"),
    ("rip.estimate_rip.directions", "count", "lower"),
    ("rip.estimate_rip.degenerate", "count", "lower"),
    ("rip.estimate_rip.us_per_support", "us", "lower"),
    ("rip.rip_scan.s", "s", "lower"),
    ("rip.kernel_share", "share", "lower"),
    ("rip.estimate_nsp_theta.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.out_bytes", "bytes", "lower"),
    ("cli.main.exit_nonzero", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den):
    # Every ratio is reported next to its base; an empty base gives 0.
    return num / den if den else 0.0


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer metrics of one traced replicate, keyed as in METRICS."""
    own = self_times(spans)
    agg = defaultdict(lambda: defaultdict(float))
    module_self = dict.fromkeys(MODULES, 0.0)
    experiment_spans = set()
    completed_trials = 0
    for i, (span, self_s) in enumerate(zip(spans, own)):
        a = agg[span.name]
        a["calls"] += 1
        a["s"] += span.end - span.start
        a["self_s"] += self_s
        a["failed"] += span.error is not None
        for key, value in span.counts.items():
            a[key] += value
        module_self[span.name.split(".")[0]] += self_s
        if span.name.startswith("experiments."):
            experiment_spans.add(i)
        elif span.parent in experiment_spans and span.error is None and span.name in (
            "solvers.irls",
            "separation.solve_split_analysis",
        ):
            completed_trials += 1

    trials = sum(agg[n]["trials"] for n in ("experiments.run_figure1", "experiments.run_separation_sweep"))
    irls, irl1 = agg["solvers.irls"], agg["solvers.irl1"]
    est, scan = agg["rip.estimate_rip"], agg["rip.rip_scan"]
    solves = irls["calls"] + irl1["calls"]
    values = {f"{m}.self_s": module_self[m] for m in MODULES}
    values.update({
        "experiments.trials": trials,
        "experiments.trials_failed": trials - completed_trials,
        "frames.cosparse_signal.failed": agg["frames.cosparse_signal"]["failed"],
        "frames.load_matrix.bytes": agg["frames.load_matrix"]["bytes"],
        "solvers.irls.ms_per_iter": 1e3 * _ratio(irls["s"], irls["iters"]),
        "solvers.irl1.ms_per_iter": 1e3 * _ratio(irl1["s"], irl1["iters"]),
        "solvers.converged_share": _ratio(solves - irls["unconverged"] - irl1["unconverged"], solves),
        "separation.solve_split_analysis.self_s": agg["separation.solve_split_analysis"]["self_s"],
        "rip.estimate_rip.supports": scan["calls"],
        "rip.estimate_rip.us_per_support": 1e6 * _ratio(est["s"], scan["calls"]),
        "rip.kernel_share": _ratio(scan["s"], est["s"]),
        "cli.main.self_s": agg["cli.main"]["self_s"],
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": sum(own),
        "trace.coverage": _ratio(sum(own), traced_wall),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for name, _, _ in METRICS:
        if name not in values:
            span_name, field = name.rsplit(".", 1)
            values[name] = agg[span_name][field]
    return {name: values[name] for name, _, _ in METRICS}
