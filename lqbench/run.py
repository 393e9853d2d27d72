"""Benchmark of lqframes: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 lqbench/run.py --workload recovery --seed 0 --seconds 15 --trace 0

The program is imported from ``src/`` of the same checkout, as shipped: the
benchmark sets no BLAS or OpenMP thread count and records the ones in
effect.  Set-up (importing the package, making the inputs) is timed on its
own.  The workload's fixed work is then repeated until ``--seconds`` would
be exceeded, at least once, and medians over the repetitions are reported.

Every output is checked (see workloads.py).  Recovery, separation and rip
also run one traced replicate in every run, because their checks compare it
with the untraced output; cli_solve runs it only with ``--trace 1``.  With
``--trace 1`` the per-layer metrics of that replicate are printed instead of
the end-to-end ones.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: repetitions, sample counts, failures and the numeric
environment.  The exit code is 1 when a check failed and 2 when the program
cannot be imported from this checkout.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from layers import METRICS, layer_metrics, targets  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lqframes, lqframes.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "success_rate": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import lqframes from this checkout's src/, never from elsewhere."""
    package = SRC / "lqframes"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no lqframes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqframes
    import lqframes.cli

    if Path(lqframes.__file__).resolve().parent != package:
        raise ProgramMissing(f"imported lqframes from {lqframes.__file__}, not from {package}")
    return lqframes


def import_seconds():
    """Seconds to import the package in a fresh interpreter (start-up excluded)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def cpu_seconds():
    """User + system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_threads():
    """Thread count of each loaded OpenBLAS copy, read through its getter only."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for getter in _BLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = {"getter": getter, "threads": fn()}
                break
    return found


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over src/lqframes/*.py, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lqframes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(lq, seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "blas": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
        "numba_enabled": bool(lq.NUMBA_ENABLED),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def measure(workload, seconds):
    """Repeat the fixed work until another repetition would pass ``seconds``."""
    walls, cpus, failures = [], [], []
    operations = successes = 0
    first_key = None
    started = time.perf_counter()
    while True:
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = workload.run()
        t1 = time.perf_counter()
        cpus.append(cpu_seconds() - c0)
        walls.append(t1 - t0)
        ops, ok, fails = workload.check(out)
        operations += ops
        successes += ok
        failures += fails
        key = workload.key(out)
        if first_key is None:
            first_key = key
        elif key != first_key:
            failures.append(f"repetition {len(walls)} differs from the first")
        if t1 - started + statistics.median(walls) > seconds:
            return walls, cpus, operations, successes, failures, first_key


def run(lq, args, workdir):
    workload = WORKLOADS[args.workload](lq, args.seed, str(workdir))
    inputs_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        inputs_s.append(time.perf_counter() - t0)
    imports_s = [import_seconds() for _ in range(SETUP_REPEATS)]

    walls, cpus, operations, successes, failures, key = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = operations
    wall_s = statistics.median(walls)

    if args.trace or workload.replicate_always:
        tracer = Tracer()
        with tracer.installed(targets(lq)):
            t0 = time.perf_counter()
            traced = workload.run()
            traced_wall = time.perf_counter() - t0
        ops, _, fails = workload.check(traced)
        attempted += ops
        failures += fails
        failures += workload.check_replicate(key, workload.key(traced), tracer.spans)

    if args.trace:
        values = layer_metrics(tracer.spans, traced_wall, wall_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "success_rate": successes / operations,
            "setup_s": statistics.median(imports_s) + statistics.median(inputs_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": summarize(walls),
        "cpu_s": summarize(cpus),
        "import_s": summarize(imports_s),
        "inputs_s": summarize(inputs_s),
        "failures": failures,
        "environment": environment(lq, args.seed),
    }
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    failed = min(len(failures), attempted)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lq = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".lqbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(lq, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
