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


def test_rip_estimate_evaluates_the_condition(tmp_path):
    # with A = D = I_4 every estimated constant is finite and below 1, so the
    # condition is evaluated rather than ruled out
    save_matrix(tmp_path / "I.csv", np.eye(4))
    out = tmp_path / "rip.json"
    rc = main(
        [
            "rip-estimate",
            "--matrix", str(tmp_path / "I.csv"),
            "--dict", str(tmp_path / "I.csv"),
            "--q", "1",
            "--s", "1",
            "--a", "2",
            "--mode", "exhaustive",
            "--budget", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    condition = json.loads(out.read_text())["condition"]
    assert all(math.isfinite(condition[key]) for key in ("lhs", "rhs", "theta", "Delta"))
    assert condition["holds"] == (condition["lhs"] < condition["rhs"])


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


@pytest.mark.parametrize("command", ["bounds", "rip-estimate", "solve", "separate"])
def test_stdout_is_the_out_file_with_a_final_newline(instance, capsys, command):
    tmp, *_ = instance
    save_matrix(tmp / "I.csv", np.eye(12))
    shared = ["--matrix", str(tmp / "A.csv"), "--q", "0.7"]
    argv = {
        "bounds": ["bounds", "--q", "0.5,1", "--s", "5", "--d", "20"],
        "rip-estimate": ["rip-estimate", *shared, "--dict", str(tmp / "D.csv"), "--s", "2", "--a", "3",
                         "--budget", "8"],
        "solve": ["solve", *shared, "--dict", str(tmp / "D.csv"), "--obs", str(tmp / "y.csv")],
        "separate": ["separate", *shared, "--dicts", f"{tmp}/D.csv,{tmp}/I.csv", "--obs", str(tmp / "y.csv"),
                     "--sparsities", "2,2", "--max-iters", "20"],
    }[command]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    written = out.read_text()
    assert capsys.readouterr().out == ""
    # a CSV table ends in a newline of its own; a JSON document gets one on stdout only
    assert written.endswith("\n") == (command == "bounds")
    assert printed == (written if command == "bounds" else written + "\n")


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
    # the order-(s + a) estimate is >= 1 here: no split constant, and Theorem 4 is ruled out
    assert payload["verdict"]["theta_tilde"] is None and payload["verdict"]["thm4_holds"] is False
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
    out_json = tmp_path / "sweep.json"
    rc = main(["separate-sweep", "--spec", str(spec_path), "--format", "json", "--out", str(out_json)])
    assert rc == 0
    (cell,) = json.loads(out_json.read_text())
    assert sorted(cell) == sorted(lines[0].split(","))
    assert cell["mu1"] == 0.25 and cell["s1"] == 1


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
        ["figure1", "--trials", "0"],
        ["solve", "--matrix", "{tmp}/A.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7",
         "--tol", "-1"],
        ["phase", "--spec", "{tmp}/q_spec.json"],
        ["figure1", "--trials", "1", "--threshold", "-1"],
        ["phase", "--spec", "{tmp}/n0_spec.json"],
        ["bounds", "--q", "1", "--s", "5", "--d", "20", "--kappa", "1e200"],
        ["bounds", "--q", "1", "--s", "5", "--d", "20", "--kappa", "inf"],
        ["bounds", "--q", "0.5", "--s", "5", "--d", "1" + "0" * 400],
        ["figure1", "--trials", "1", "--threshold", "inf"],
    ],
    ids=["missing-input-file", "non-numeric-q", "missing-output-dir", "zero-max-iters", "spec-not-an-object",
         "sparsity-count-mismatch", "figure1-negative-seed", "figure1-no-trials", "negative-tol",
         "phase-cell-q-above-one", "figure1-negative-threshold", "phase-cell-n-zero", "bounds-kappa-overflow",
         "bounds-kappa-inf", "bounds-d-overflow", "figure1-infinite-threshold"],
)
def test_cli_user_errors_exit_2_in_one_line(instance, capsys, argv):
    tmp, _, _, _ = instance
    (tmp / "list_spec.json").write_text("[1, 2]")
    q_cell = {"n": 20, "d": 24, "m": 14, "q": 1.5, "s": 6}
    (tmp / "q_spec.json").write_text(json.dumps({"kind": "phase_transition", "grid": [q_cell]}))
    n0_cell = {"n": 0, "d": 24, "m": 14, "q": 0.7, "s": 6}
    (tmp / "n0_spec.json").write_text(json.dumps({"kind": "phase_transition", "grid": [n0_cell]}))
    rc = main([arg.format(tmp=tmp) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, cell",
    [
        ("separate-sweep", {"n": 16.0, "s1": 1, "s2": 1, "m": 12, "q": 0.7}),
        ("phase", {"n": 20.5, "d": 24, "m": 14, "q": 0.7, "s": 6}),
    ],
    ids=["float-n-separation", "fractional-n-phase"],
)
def test_cli_refuses_a_non_integer_count(tmp_path, capsys, command, cell):
    kind = "separation_sweep" if command == "separate-sweep" else "phase_transition"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": kind, "grid": [cell], "trials_per_cell": 2}))
    rc = main([command, "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not an integer" in err
    assert "Traceback" not in err


def test_solve_reads_crlf_csv_and_refuses_ragged_or_empty_files(instance, capsys):
    tmp, A, D, f = instance
    argv = ["solve", "--matrix", str(tmp / "A2.csv"), "--dict", str(tmp / "D.csv"), "--obs", str(tmp / "y.csv"),
            "--q", "0.7", "--out", str(tmp / "out.json")]
    lines = (tmp / "A.csv").read_text().splitlines()
    (tmp / "A2.csv").write_bytes(("\r\n".join(lines[:2] + [" \t"] + lines[2:]) + "\r\n").encode("ascii"))
    assert main(argv) == 0
    assert json.loads((tmp / "out.json").read_text())["f_hat"] == pytest.approx(f, abs=1e-4)
    for text in ("1.0,2.0\n3.0\n", ""):
        (tmp / "A2.csv").write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "A2.csv" in err
