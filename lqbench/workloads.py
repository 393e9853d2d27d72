"""The four workloads: inputs from a seed, the timed work, and its checks.

Each workload object is built with the imported ``lqframes`` package, the
seed and a scratch directory.  ``setup()`` makes the inputs (repeatable),
``run()`` is the timed work, ``check(out)`` judges one untraced output and
returns ``(operations, successes, failures)``, and ``check_replicate``
compares a traced replicate with the untraced output.  The work calls the
program through module attributes (``experiments.run_figure1``, not a name
bound at import), so the wrappers installed for the traced run see it.
"""

import json
import math
import os
from collections import namedtuple
from math import comb

import numpy as np

from inputs import Q, gaussian, noisy_instance, residual_norm, tight_frame


def _finite(x):
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# Signals drawn by cosparse_signal in one trial, by the solver span ending it.
_SIGNALS_PER_SOLVE = {"solvers.irls": 1, "separation.solve_split_analysis": 2}


def trial_outcomes(spans, root_name, feasibility_rtol=None):
    """Per-trial (relative error, iterations) read from a traced experiment.

    Walks the direct children of the one ``root_name`` span in call order.
    The signals drawn by ``cosparse_signal`` are paired with the next solver
    call, and the error is computed with the expression the experiment uses,
    so the values must match it bit for bit.  A child that raised ends its
    trial as a failure, as the experiment counts it.  Returns
    ``(outcomes, failures)``; failures name non-finite or infeasible output.
    """
    roots = [i for i, s in enumerate(spans) if s.name == root_name]
    if len(roots) != 1:
        return [], [f"expected one {root_name} span, found {len(roots)}"]
    outcomes, failures, signals = [], [], []
    for span in spans:
        if span.parent != roots[0]:
            continue
        if span.error is not None:
            outcomes.append((math.inf, 0))
            signals = []
            continue
        if span.name == "frames.cosparse_signal":
            signals.append(span.call[2][0])
            continue
        if span.name not in _SIGNALS_PER_SOLVE:
            continue
        trial = len(outcomes)
        if len(signals) != _SIGNALS_PER_SOLVE[span.name]:
            failures.append(f"trial {trial}: {len(signals)} drawn signals precede {span.name}")
            signals = []
            continue
        if span.name == "solvers.irls":
            problem, result = span.call[0][0], span.call[2]
            (f,) = signals
            rel = float(np.linalg.norm(result.f_hat - f) / np.linalg.norm(f))
        else:
            (g1, g2), result = span.call[2]
            f1, f2 = signals
            problem = None
            rel = max(
                float(np.linalg.norm(g1 - f1) / np.linalg.norm(f1)),
                float(np.linalg.norm(g2 - f2) / np.linalg.norm(f2)),
            )
        if not _finite(result.f_hat):
            failures.append(f"trial {trial}: f_hat is not finite")
        elif feasibility_rtol is not None:
            resid = np.linalg.norm(problem.A @ result.f_hat - problem.y)
            if not resid <= feasibility_rtol * np.linalg.norm(problem.y):
                failures.append(f"trial {trial}: |A f_hat - y| = {resid:.3e} exceeds {feasibility_rtol:g} |y|")
        outcomes.append((rel, result.iterations))
        signals = []
    return outcomes, failures


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    # Whether every run, not only the traced one, checks a traced replicate.
    replicate_always = True

    def __init__(self, lq, seed, workdir):
        self.lq, self.seed, self.workdir = lq, seed, workdir

    def setup(self):
        pass

    def key(self, out):
        """The part of an output that must repeat exactly from run to run."""
        return out

    def check_replicate(self, key, traced_key, spans):
        return [] if traced_key == key else ["traced replicate differs from the untraced run"]


class _Cell(Workload):
    """An experiment cell: 20 trials whose outcomes the traced replicate replays."""

    trials = 20
    feasibility_rtol = None

    def key(self, cell):
        # Everything but the wall time; check_replicate relies on this order.
        return (cell.params, cell.success_rate, cell.median_relative_error, cell.median_iterations)

    def check(self, cell):
        failures = []
        if not 0.0 <= cell.success_rate <= 1.0:
            failures.append(f"success_rate {cell.success_rate} outside [0, 1]")
        return self.trials, round(cell.success_rate * self.trials), failures

    def check_replicate(self, key, traced_key, spans):
        failures = super().check_replicate(key, traced_key, spans)
        outcomes, bad = trial_outcomes(spans, self.root, self.feasibility_rtol)
        failures += bad
        if len(outcomes) != self.trials:
            return failures + [f"traced replicate has {len(outcomes)} trials, expected {self.trials}"]
        errors = [e for e, _ in outcomes]
        replayed = (
            sum(1 for e in errors if e <= self.threshold) / self.trials,
            float(np.median(errors)),
            float(np.median([it for _, it in outcomes])),
        )
        if replayed != key[1:]:
            failures.append(f"traced per-trial outcomes give {replayed}, the untraced cell has {key[1:]}")
        return failures


class Recovery(_Cell):
    """run_figure1 on the reference cell; the only input is the master seed."""

    name = "recovery"
    root = "experiments.run_figure1"
    threshold = 1e-4
    feasibility_rtol = 1e-8
    cell = {"n": 100, "d": 110, "m": 50, "q": Q, "s": 25}

    def run(self):
        return self.lq.experiments.run_figure1(
            master_seed=self.seed, trials=self.trials, threshold=self.threshold, **self.cell
        )


class Separation(_Cell):
    """run_separation_sweep on the spikes + Hadamard desk cell."""

    name = "separation"
    root = "experiments.run_separation_sweep"
    threshold = 1e-3
    cell = {"n": 32, "s1": 2, "s2": 2, "m": 24, "q": Q}

    def setup(self):
        self.spec = self.lq.ExperimentSpec(
            kind="separation_sweep",
            grid=(self.cell,),
            trials_per_cell=self.trials,
            success_threshold=self.threshold,
            master_seed=self.seed,
        )

    def run(self):
        (cell,) = self.lq.experiments.run_separation_sweep(self.spec)
        return cell


class Rip(Workload):
    """q-RIP diagnostics on the reference pair, plus one exhaustive scan."""

    name = "rip"
    orders = (25, 50, 75)  # s, a and s + a of the recovery condition
    budget = 256
    directions_per_support = 8  # estimate_rip's default in sampled mode
    small_order = 4
    small_budget = 32  # estimate_rip's default in exhaustive mode
    nsp_budget = 64  # estimate_nsp_theta's default
    operations = 6

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        self.A = gaussian(rng, 50, 100, Q)
        self.D = tight_frame(rng, 100, 110)
        self.A_small = gaussian(rng, 10, 16, Q)
        self.D_small = tight_frame(rng, 16, 20)

    def run(self):
        rip = self.lq.rip
        reports = [
            rip.estimate_rip(self.A, self.D, Q, s, mode="sampled", budget=self.budget, seed=self.seed)
            for s in self.orders
        ]
        s, a, _ = self.orders
        try:
            # The frame is tight, so its condition number kappa is 1.
            verdict = rip.check_recovery_condition(reports[1].delta, reports[2].delta, s, a, 1.0, Q)
        except self.lq.ConditionUnevaluableError:
            verdict = None  # the estimated constant already rules the condition out
        theta = rip.estimate_nsp_theta(self.A, self.D, Q, s, budget=self.nsp_budget, seed=self.seed)
        reports.append(
            rip.estimate_rip(
                self.A_small, self.D_small, Q, self.small_order, mode="exhaustive",
                budget=self.small_budget, seed=self.seed,
            )
        )
        return reports, verdict, theta

    def expected_trials(self):
        sampled = [self.budget * (s + 1 + self.directions_per_support) for s in self.orders]
        exhaustive = comb(20, self.small_order) * (self.small_order + 1 + self.small_budget)
        return sampled + [exhaustive]

    def check(self, out):
        reports, verdict, theta = out
        failures = []
        for report, trials in zip(reports, self.expected_trials()):
            if not math.isfinite(report.delta):
                failures.append(f"order {report.order}: delta {report.delta} is not finite")
            if report.trials != trials:
                failures.append(f"order {report.order}: {report.trials} trials, expected {trials}")
        if verdict is not None and not (math.isfinite(verdict.lhs) and math.isfinite(verdict.rhs)):
            failures.append("recovery condition has a non-finite side")
        if math.isnan(theta):
            failures.append("null-space constant is NaN")
        return self.operations, self.operations - len(failures), failures


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

_Call = namedtuple("_Call", "label argv out A y eps norm")


class CliSolve(Workload):
    """Four ``lqframes solve`` calls, in process, on CSV files."""

    name = "cli_solve"
    replicate_always = False  # every check reads the untraced output itself
    # (label, (n, d, m, s) or None for the fixed instance in data/, method, norm, eps)
    instances = (
        ("ref_irls_l2", (100, 110, 50, 20), "irls", "2", 0.01),
        ("small_irls_linf", (16, 20, 10, 5), "irls", "inf", 0.005),
        ("small_irl1_l2", None, "irl1", "2", 0.01),
        ("ref_irl1_exact", (100, 110, 50, 20), "irl1", "2", 0.0),
    )

    def setup(self):
        self.calls = []
        for k, (label, shape, method, norm, eps) in enumerate(self.instances):
            if shape is None:
                paths = {key: os.path.join(DATA, f"{label}_{key}.csv") for key in ("matrix", "dict", "obs")}
                A = np.loadtxt(paths["matrix"], delimiter=",")
                y = np.loadtxt(paths["obs"], delimiter=",")
            else:
                seq = np.random.SeedSequence([self.seed, k])
                A, D, _, y = noisy_instance(seq, *shape, eps, norm)
                paths = {}
                for key, arr in (("matrix", A), ("dict", D), ("obs", y[None, :])):
                    paths[key] = os.path.join(self.workdir, f"{label}_{key}.csv")
                    np.savetxt(paths[key], arr, delimiter=",", fmt="%.17g")
            out = os.path.join(self.workdir, f"{label}_out.json")
            argv = ["solve", "--matrix", paths["matrix"], "--dict", paths["dict"], "--obs", paths["obs"],
                    "--q", repr(Q), "--eps", repr(eps), "--r", norm, "--method", method, "--out", out]
            self.calls.append(_Call(label, argv, out, A, y, eps, norm))

    def run(self):
        main = self.lq.cli.main
        return [main(call.argv) for call in self.calls]

    def key(self, codes):
        texts = []
        for call in self.calls:
            try:
                with open(call.out, encoding="ascii") as fh:
                    texts.append(fh.read())
            except OSError:
                texts.append(None)  # check() reports the missing output
        return codes, texts

    def check(self, codes):
        failures, successes = [], 0
        for code, (label, _, out, A, y, eps, norm) in zip(codes, self.calls):
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            try:
                with open(out, encoding="ascii") as fh:
                    payload = json.load(fh)
                f_hat = np.asarray(payload["f_hat"], dtype=float)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"{label}: unreadable output ({exc})")
                continue
            if f_hat.shape != (A.shape[1],) or not _finite(f_hat):
                failures.append(f"{label}: f_hat is not a finite vector of length {A.shape[1]}")
                continue
            resid = residual_norm(A @ f_hat - y, norm)
            limit = eps * (1.0 + 1e-8) if eps > 0.0 else 1e-8 * np.linalg.norm(y)
            if not resid <= limit:
                failures.append(f"{label}: residual {resid:.6e} exceeds {limit:.6e}")
                continue
            successes += payload.get("converged") is True
        return len(self.calls), successes, failures


WORKLOADS = {w.name: w for w in (Recovery, Separation, Rip, CliSolve)}
