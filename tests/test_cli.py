import json
import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from lqframes import cosparse_signal, random_tight_frame, save_matrix
from lqframes.cli import main
from lqframes.frames import Frame


@pytest.fixture
def instance(tmp_path):
    rng = np.random.default_rng(2)
    D = random_tight_frame(12, 14, 1)
    f, _ = cosparse_signal(D, 4, 2)
    A = rng.standard_normal((8, 12))
    save_matrix(tmp_path / "A.csv", A)
    save_matrix(tmp_path / "D.csv", D.matrix)
    save_matrix(tmp_path / "y.csv", (A @ f).reshape(1, -1))
    return tmp_path, A, D, f


def test_solve_json_schema_and_recovery(instance):
    tmp, A, D, f = instance
    out = tmp / "result.json"
    rc = main(
        [
            "solve",
            "--matrix", str(tmp / "A.csv"),
            "--dict", str(tmp / "D.csv"),
            "--obs", str(tmp / "y.csv"),
            "--q", "0.7",
            "--eps", "0",
            "--method", "irls",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"f_hat", "iterations", "converged", "objective_trace", "residual_trace"}
    f_hat = np.asarray(payload["f_hat"])
    assert np.linalg.norm(f_hat - f) / np.linalg.norm(f) <= 1e-4
    assert len(payload["objective_trace"]) == payload["iterations"]


def test_solve_irl1_method(instance):
    tmp, A, D, f = instance
    out = tmp / "result.json"
    rc = main(
        [
            "solve",
            "--matrix", str(tmp / "A.csv"),
            "--dict", str(tmp / "D.csv"),
            "--obs", str(tmp / "y.csv"),
            "--q", "0.7",
            "--method", "irl1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    f_hat = np.asarray(payload["f_hat"])
    assert np.linalg.norm(f_hat - f) / np.linalg.norm(f) <= 1e-3


def test_rip_estimate_schema(instance):
    tmp, *_ = instance
    out = tmp / "rip.json"
    rc = main(
        [
            "rip-estimate",
            "--matrix", str(tmp / "A.csv"),
            "--dict", str(tmp / "D.csv"),
            "--q", "0.7",
            "--s", "2",
            "--a", "3",
            "--mode", "sampled",
            "--budget", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"order", "q", "delta", "method", "trials", "condition"}
    assert payload["order"] == 2
    assert payload["method"] == "sampled"
    assert set(payload["condition"]) == {"lhs", "rhs", "holds", "theta", "Delta"}


def test_rip_estimate_dual_flag(instance):
    tmp, *_ = instance
    out = tmp / "rip.json"
    rc = main(
        [
            "rip-estimate",
            "--matrix", str(tmp / "A.csv"),
            "--dict", str(tmp / "D.csv"),
            "--q", "0.7",
            "--s", "2",
            "--dual",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["condition"] is None
    assert payload["delta"] >= 0.0


def test_bounds_csv(tmp_path, capsys):
    rc = main(["bounds", "--q", "0.3,0.5,0.7,1.0", "--s", "25", "--d", "110", "--kappa", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,m_min,m_min_separation"
    assert len(lines) == 5
    q, m_min, m_sep = (float(tok) for tok in lines[-1].split(","))
    assert q == 1.0
    assert m_min > 0 and m_sep >= m_min


def test_figure1_command(tmp_path):
    out = tmp_path / "fig.json"
    rc = main(["figure1", "--seed", "1", "--trials", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["success_rate"] == 1.0


def test_phase_command(tmp_path):
    spec = {
        "kind": "phase_transition",
        "grid": [{"n": 12, "d": 14, "m": 9, "q": 0.7, "s": 4}],
        "trials_per_cell": 2,
        "success_threshold": 1e-4,
        "master_seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results.csv"
    rc = main(["phase", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,m,n,q,s,success_rate")
    assert len(lines) == 2


def test_separate_command(tmp_path):
    n, m = 16, 12
    spikes = Frame(matrix=np.eye(n), lower_bound=1.0, upper_bound=1.0)
    waves = Frame(matrix=hadamard(n) / math.sqrt(n), lower_bound=1.0, upper_bound=1.0)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 1, 5)
    f2, _ = cosparse_signal(waves, 1, 6)
    save_matrix(tmp_path / "D1.csv", spikes.matrix)
    save_matrix(tmp_path / "D2.csv", waves.matrix)
    save_matrix(tmp_path / "A.csv", A)
    save_matrix(tmp_path / "y.csv", (A @ (f1 + f2)).reshape(1, -1))
    out = tmp_path / "sep.json"
    rc = main(
        [
            "separate",
            "--dicts", f"{tmp_path}/D1.csv,{tmp_path}/D2.csv",
            "--matrix", str(tmp_path / "A.csv"),
            "--obs", str(tmp_path / "y.csv"),
            "--q", "0.7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"components", "verdict"}
    assert set(payload["verdict"]) == {"mu1", "U", "theta_tilde", "thm3_holds", "thm4_holds"}
    assert payload["verdict"]["mu1"] == pytest.approx(0.25)
    g1, g2 = (np.asarray(c) for c in payload["components"])
    assert np.linalg.norm(g1 - f1) / np.linalg.norm(f1) <= 1e-3
    assert np.linalg.norm(g2 - f2) / np.linalg.norm(f2) <= 1e-3


def test_separate_sweep_command(tmp_path):
    spec = {
        "kind": "separation_sweep",
        "grid": [{"n": 16, "s1": 1, "s2": 1, "m": 12, "q": 0.7}],
        "trials_per_cell": 2,
        "success_threshold": 1e-3,
        "master_seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    rc = main(["separate-sweep", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert "mu1" in lines[0]


def test_cli_reports_domain_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    rc = main(
        [
            "solve",
            "--matrix", str(bad),
            "--dict", str(bad),
            "--obs", str(bad),
            "--q", "0.7",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_non_finite_csv_in_one_line(instance, capsys):
    tmp, _, _, _ = instance
    bad = tmp / "nan.csv"
    bad.write_text("1.0,2.0\nnan,3.0\n")
    rc = main(
        [
            "solve",
            "--matrix", str(bad),
            "--dict", str(tmp / "D.csv"),
            "--obs", str(tmp / "y.csv"),
            "--q", "0.7",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and f"{bad}:2: non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--matrix", "{tmp}/missing.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7"],
        ["bounds", "--q", "abc", "--s", "3", "--d", "10"],
        ["bounds", "--q", "0.5", "--s", "3", "--d", "10", "--out", "{tmp}/no_such_dir/table.csv"],
        ["solve", "--matrix", "{tmp}/A.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7",
         "--max-iters", "0"],
        ["phase", "--spec", "{tmp}/list_spec.json"],
        ["separate", "--dicts", "{tmp}/D.csv,{tmp}/D.csv", "--matrix", "{tmp}/A.csv", "--obs", "{tmp}/y.csv",
         "--q", "0.7", "--sparsities", "3"],
        ["figure1", "--seed", "-1"],
    ],
    ids=["missing-input-file", "non-numeric-q", "missing-output-dir", "zero-max-iters", "spec-not-an-object",
         "sparsity-count-mismatch", "figure1-negative-seed"],
)
def test_cli_user_errors_exit_2_in_one_line(instance, capsys, argv):
    tmp, _, _, _ = instance
    (tmp / "list_spec.json").write_text("[1, 2]")
    rc = main([arg.format(tmp=tmp) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
