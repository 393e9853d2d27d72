"""Self-tests of the benchmark's own bookkeeping: spans, wrappers, percentiles.

Run with ``PYTHONPATH=src python -m pytest -q lqbench``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import lqframes  # noqa: E402
import lqframes.cli  # noqa: E402
from layers import METRICS, layer_metrics, targets  # noqa: E402
from spans import Span, Target, Tracer, self_times, summarize, tail_percentile  # noqa: E402


def _span(name, start, end, parent=None):
    return Span(name, float(start), float(end), parent)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, 0),
        _span("b", 3, 6, 0),  # overlaps a: [1, 6] is covered once
        _span("a.child", 2, 3, 1),
        _span("c", 8, 12, 0),  # ends after its parent: clipped to [8, 10]
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_self_time_of_nested_chain_sums_to_root_duration():
    spans = [_span("r", 0, 8), _span("x", 1, 7, 0), _span("y", 2, 6, 1), _span("z", 3, 4, 2)]
    own = self_times(spans)
    assert own == [2.0, 2.0, 3.0, 1.0]
    assert sum(own) == 8.0


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2  # looked up at call time, as lqframes does

    def boom():
        raise ValueError("no")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


def test_wrappers_nest_record_errors_and_are_removed():
    mod = _fake_module()
    originals = dict(vars(mod))
    tracer = Tracer()
    wanted = [Target(mod, "outer", "m.outer"), Target(mod, "inner", "m.inner"), Target(mod, "boom", "m.boom")]
    with tracer.installed(wanted):
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.boom()
        mod.inner(0)
    assert [s.name for s in tracer.spans] == ["m.outer", "m.inner", "m.boom", "m.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, None, None]
    assert tracer.spans[2].error == "ValueError"
    for name in ("outer", "inner", "boom"):
        assert vars(mod)[name] is originals[name]
    mod.outer(1)
    assert len(tracer.spans) == 4  # no span code runs once uninstalled


def test_wrappers_are_removed_even_when_the_traced_run_raises():
    mod = _fake_module()
    original = mod.boom
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed([Target(mod, "boom", "m.boom")]):
            mod.boom()
    assert mod.boom is original


def test_program_targets_are_restored_exactly():
    wanted = targets(lqframes)
    raw = [vars(t.owner)[t.attr] for t in wanted]
    tracer = Tracer()
    with tracer.installed(wanted):
        assert all(vars(t.owner)[t.attr] is not r for t, r in zip(wanted, raw))
        D = lqframes.cli.Frame.from_matrix(np.eye(3))
        lqframes.rip.estimate_rip(np.eye(3), D, 0.7, 1, mode="sampled", budget=2, seed=0)
    names = [s.name for s in tracer.spans]
    assert names[0] == "frames.from_matrix"
    assert names[1:] == ["rip.estimate_rip", "rip.rip_scan", "rip.rip_scan"]
    assert tracer.spans[2].parent == 1
    assert [vars(t.owner)[t.attr] for t in wanted] == raw
    assert all(vars(t.owner)[t.attr] is r for t, r in zip(wanted, raw))
    assert isinstance(vars(lqframes.cli.Frame)["from_matrix"], classmethod)
    lqframes.cli.Frame.from_matrix(np.eye(2))
    assert len(tracer.spans) == 4


def test_layer_ratios_carry_their_base_and_empty_bases_give_zero():
    spans = [
        _span("rip.estimate_rip", 0.0, 1.0),
        _span("rip.rip_scan", 0.1, 0.3, 0),
        _span("rip.rip_scan", 0.4, 0.6, 0),
    ]
    values = layer_metrics(spans, traced_wall=1.25, untraced_wall=1.0)
    assert values["rip.estimate_rip.supports"] == 2
    assert values["rip.kernel_share"] == pytest.approx(0.4)
    assert values["rip.estimate_rip.us_per_support"] == pytest.approx(5e5)
    assert values["rip.self_s"] == pytest.approx(1.0)
    assert values["trace.coverage"] == pytest.approx(0.8)
    assert values["trace.overhead_s"] == pytest.approx(0.25)
    assert values["solvers.irls.ms_per_iter"] == 0.0
    assert list(values) == [name for name, _, _ in METRICS]


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_median_count_and_supported_tail():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    assert summarize([4.0, 1.0, 3.0, 2.0]) == {"n": 4, "median": 2.5}
    values = [float(i) for i in range(1, 101)]
    assert summarize(values) == {"n": 100, "median": 50.5, "p90": 90.0}
    values = [float(i) for i in range(1, 1001)]
    assert summarize(values)["p99"] == 990.0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rip", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "cannot import the program" in done.stderr
