import json
import math

import numpy as np
import pytest

from lqframes import cosparse_signal, random_tight_frame
from lqframes.cli import main
from lqframes.experiments import _spikes_and_waves


def _strict_json(text):
    """The CLI's JSON output, read as strict JSON: a NaN or Infinity token fails the test."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def instance(tmp_path):
    rng = np.random.default_rng(2)
    D = random_tight_frame(12, 14, 1)
    f, _ = cosparse_signal(D, 4, 2)
    A = rng.standard_normal((8, 12))
    np.savetxt(tmp_path / "A.csv", A, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "D.csv", D.matrix, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "y.csv", (A @ f).reshape(1, -1), delimiter=",", fmt="%.17g")
    return tmp_path, A, D, f


@pytest.fixture
def gaussian(tmp_path):
    """A 4x6 A, a 6x8 D and a 1x4 y, drawn in that order from default_rng(0), as CSV in their own directory."""
    path = tmp_path / "gaussian"
    path.mkdir()
    rng = np.random.default_rng(0)
    for name, shape in (("A", (4, 6)), ("D", (6, 8)), ("y", (1, 4))):
        np.savetxt(path / f"{name}.csv", rng.standard_normal(shape), delimiter=",")
    return path


def test_solve_json_schema_and_recovery(instance, gaussian):
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
    payload = _strict_json(out.read_text())
    # the SolverResult fields, in their order
    assert list(payload) == ["f_hat", "iterations", "converged", "objective_trace", "residual_trace"]
    f_hat = np.asarray(payload["f_hat"])
    assert np.linalg.norm(f_hat - f) / np.linalg.norm(f) <= 1e-4
    assert len(payload["objective_trace"]) == payload["iterations"]
    # --max-iters caps the outer loop, and a capped solve is not converged
    out = gaussian / "capped.json"
    assert main(["solve", "--matrix", f"{gaussian}/A.csv", "--dict", f"{gaussian}/D.csv", "--obs", f"{gaussian}/y.csv",
                 "--q", "0.7", "--max-iters", "3", "--tol", "1e-6", "--out", str(out)]) == 0
    payload = _strict_json(out.read_text())
    assert payload["iterations"] == len(payload["objective_trace"]) == 3
    assert payload["converged"] is False


def test_solve_irl1_method(instance, gaussian):
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
    payload = _strict_json(out.read_text())
    f_hat = np.asarray(payload["f_hat"])
    assert np.linalg.norm(f_hat - f) / np.linalg.norm(f) <= 1e-3

    def irl1(*argv):
        out = gaussian / "irl1.json"
        assert main(["solve", "--matrix", f"{gaussian}/A.csv", "--obs", f"{gaussian}/y.csv", "--method", "irl1",
                     *argv, "--out", str(out)]) == 0
        return _strict_json(out.read_text())

    # an l-inf noise bound is met by the solution
    A_g, y_g, D_g = (np.loadtxt(gaussian / f"{name}.csv", delimiter=",") for name in "AyD")
    f_hat = np.asarray(irl1("--dict", f"{gaussian}/D.csv", "--q", "0.7", "--r", "inf", "--eps", "0.01")["f_hat"])
    assert np.max(np.abs(A_g @ f_hat - y_g)) <= 0.01 * (1 + 1e-8)
    # at q = 1 the l1-analysis minimum on [D | D] is twice the one on D
    np.savetxt(gaussian / "DD.csv", np.hstack([D_g, D_g]), delimiter=",")
    one = irl1("--dict", f"{gaussian}/D.csv", "--q", "1")["objective_trace"][-1]
    two = irl1("--dict", f"{gaussian}/DD.csv", "--q", "1")["objective_trace"][-1]
    assert two == pytest.approx(2 * one, rel=1e-9, abs=0)


def _assert_ruled_out(condition):
    # the order-(s + a) estimate is >= 1: the library rules the condition out with a finite lhs
    assert list(condition) == ["lhs", "rhs", "holds", "theta", "Delta"]
    assert isinstance(condition["lhs"], float) and condition["rhs"] <= 0.0 < condition["lhs"]
    assert condition["holds"] is False and condition["theta"] is None and condition["Delta"] is None


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
    payload = _strict_json(out.read_text())
    assert list(payload) == ["order", "q", "delta", "method", "trials", "degenerate", "condition"]
    assert payload["order"] == 2
    assert payload["method"] == "sampled"
    _assert_ruled_out(payload["condition"])


def test_rip_estimate_evaluates_an_order_s_plus_a_above_d(gaussian, capsys):
    # the order-(s + a) = 9 check on 8 atoms is evaluated at order 8
    argv = ["rip-estimate", "--matrix", f"{gaussian}/A.csv", "--dict", f"{gaussian}/D.csv", "--q", "0.7",
            "--s", "2", "--a", "7", "--mode", "sampled", "--budget", "8"]
    assert main(argv) == 0
    _assert_ruled_out(_strict_json(capsys.readouterr().out)["condition"])


@pytest.mark.parametrize("mode, budget, degenerate", [("sampled", "1", 1), ("exhaustive", "4", 7)])
def test_rip_estimate_prints_the_pairs_a_zero_atom_skips(gaussian, capsys, mode, budget, degenerate):
    # exhaustive mode skips the axis of atom 3 once in each of the 7 two-atom supports that hold it
    D = np.loadtxt(gaussian / "D.csv", delimiter=",")
    D[:, 3] = 0.0
    np.savetxt(gaussian / "D0.csv", D, delimiter=",")
    argv = ["rip-estimate", "--matrix", f"{gaussian}/A.csv", "--dict", f"{gaussian}/D0.csv", "--q", "0.7",
            "--s", "2", "--mode", mode, "--budget", budget]
    assert main(argv) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["degenerate"] == degenerate and payload["condition"] is None


@pytest.mark.parametrize("command", ["rip-estimate", "separate"])
def test_a_below_s_plus_one_is_refused_under_its_own_name(gaussian, capsys, command):
    # s = 2 (the sparsities sum to 2 in separate); separate splits spikes and waves in R^8 through the 6x8 D
    if command == "rip-estimate":
        argv = ["rip-estimate", "--matrix", f"{gaussian}/A.csv", "--dict", f"{gaussian}/D.csv", "--s", "2"]
    else:
        for name, frame in zip("IH", _spikes_and_waves(8)):
            np.savetxt(gaussian / f"{name}.csv", frame.matrix, delimiter=",")
        np.savetxt(gaussian / "sy.csv", np.loadtxt(gaussian / "D.csv", delimiter=",")[:, 2][None, :], delimiter=",")
        argv = ["separate", "--dicts", f"{gaussian}/I.csv,{gaussian}/H.csv", "--matrix", f"{gaussian}/D.csv",
                "--obs", f"{gaussian}/sy.csv", "--sparsities", "1,1"]
    assert main(argv + ["--q", "0.7", "--a", "0"]) == 2
    assert capsys.readouterr().err == "error: a must lie in [3, inf], got 0\n"


def test_rip_estimate_evaluates_the_condition(tmp_path):
    # with A = D = I_4 every estimated constant is finite and below 1, so the
    # condition is evaluated rather than ruled out
    np.savetxt(tmp_path / "I.csv", np.eye(4), delimiter=",", fmt="%.17g")
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
    condition = _strict_json(out.read_text())["condition"]
    assert all(math.isfinite(condition[key]) for key in ("lhs", "rhs", "theta", "Delta"))
    assert condition["holds"] == (condition["lhs"] < condition["rhs"])


def test_rip_estimate_dual_flag(gaussian):
    out = gaussian / "rip.json"
    rc = main(
        [
            "rip-estimate",
            "--matrix", str(gaussian / "A.csv"),
            "--dict", str(gaussian / "D.csv"),
            "--q", "0.7",
            "--s", "2",
            "--a", "3",
            "--dual",
            "--mode", "sampled",
            "--budget", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = _strict_json(out.read_text())
    assert payload["delta"] >= 0.0
    _assert_ruled_out(payload["condition"])


def test_bounds_csv(tmp_path, capsys):
    # the separation count is the measurement count at kappa = 2, and the count is nondecreasing in kappa
    for kappa in (1, 5):
        rc = main(["bounds", "--q", "0.3,0.5,0.7,1.0", "--s", "25", "--d", "110", "--kappa", str(kappa)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,m_min,m_min_separation"
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert [q for q, _, _ in rows] == [0.3, 0.5, 0.7, 1.0]
        for _, m_min, m_sep in rows:
            assert m_min > 0 and m_sep > 0
            assert m_sep >= m_min if kappa <= 2 else m_sep <= m_min


@pytest.mark.parametrize("command", ["bounds", "rip-estimate", "solve", "separate"])
def test_stdout_is_the_out_file_with_a_final_newline(instance, capsys, command):
    tmp, *_ = instance
    np.savetxt(tmp / "I.csv", np.eye(12), delimiter=",", fmt="%.17g")
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
    payload = _strict_json(out.read_text())
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
    spikes, waves = _spikes_and_waves(n)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 1, 5)
    f2, _ = cosparse_signal(waves, 1, 6)
    np.savetxt(tmp_path / "D1.csv", spikes.matrix, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "D2.csv", waves.matrix, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "A.csv", A, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "y.csv", (A @ (f1 + f2)).reshape(1, -1), delimiter=",", fmt="%.17g")
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
    payload = _strict_json(out.read_text())
    assert list(payload) == ["components", "verdict"]
    assert list(payload["verdict"]) == ["mu1", "U", "theta_tilde", "thm3_holds", "thm4_holds"]
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
    (cell,) = _strict_json(out_json.read_text())
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
    "argv, start",
    [
        pytest.param(["solve", "--matrix", "{tmp}/missing.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv",
                      "--q", "0.7"], "error: [Errno 2] No such file or directory", id="missing-input-file"),
        pytest.param(["bounds", "--q", "abc", "--s", "3", "--d", "10"], "error: could not convert string to float",
                     id="non-numeric-q"),
        pytest.param(["bounds", "--q", "0.5", "--s", "3", "--d", "10", "--out", "{tmp}/no_such_dir/table.csv"],
                     "error: [Errno 2] No such file or directory", id="missing-output-dir"),
        pytest.param(["solve", "--matrix", "{tmp}/A.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7",
                      "--max-iters", "0"], "error: max_outer_iters must lie in [1, inf]", id="zero-max-iters"),
        pytest.param(["phase", "--spec", "{tmp}/list_spec.json"], "error: spec must be a JSON object",
                     id="spec-not-an-object"),
        pytest.param(["separate", "--dicts", "{tmp}/D.csv,{tmp}/D.csv", "--matrix", "{tmp}/A.csv", "--obs",
                      "{tmp}/y.csv", "--q", "0.7", "--sparsities", "3"],
                     "error: --sparsities needs one value per dictionary", id="sparsity-count-mismatch"),
        pytest.param(["figure1", "--seed", "-1"], "error: master_seed must lie in [0, inf]", id="figure1-negative-seed"),
        pytest.param(["figure1", "--trials", "0"], "error: trials must lie in [1, inf]", id="figure1-no-trials"),
        pytest.param(["solve", "--matrix", "{tmp}/A.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7",
                      "--tol", "-1"], "error: tol must be", id="negative-tol"),
        pytest.param(["solve", "--matrix", "{tmp}/A.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv", "--q", "0.7",
                      "--tol", "0"], "error: tol must be", id="zero-tol"),
        pytest.param(["solve", "--matrix", "{tmp}/A_rep.csv", "--dict", "{tmp}/D.csv", "--obs", "{tmp}/y.csv",
                      "--q", "0.7"], "error: measurement matrix is row-rank deficient", id="solve-repeated-row"),
        pytest.param(["phase", "--spec", "{tmp}/q_spec.json"], "error: cell 0 q must lie in (0, 1]",
                     id="phase-cell-q-above-one"),
        pytest.param(["figure1", "--trials", "1", "--threshold", "-1"], "error: threshold must be",
                     id="figure1-negative-threshold"),
        pytest.param(["phase", "--spec", "{tmp}/n0_spec.json"], "error: cell 0 n must lie in [1, inf]",
                     id="phase-cell-n-zero"),
        pytest.param(["phase", "--spec", "{tmp}/trials_spec.json"], "error: cell 0 field 'trials' is not",
                     id="phase-cell-trials"),
        pytest.param(["bounds", "--q", "1", "--s", "5", "--d", "20", "--kappa", "1e200"],
                     "error: kappa overflows a float", id="bounds-kappa-overflow"),
        pytest.param(["bounds", "--q", "1", "--s", "5", "--d", "20", "--kappa", "inf"], "error: kappa must be",
                     id="bounds-kappa-inf"),
        pytest.param(["bounds", "--q", "0.5", "--s", "5", "--d", "1" + "0" * 400], "error: d must fit a float",
                     id="bounds-d-overflow"),
        pytest.param(["figure1", "--trials", "1", "--threshold", "inf"], "error: threshold must be",
                     id="figure1-infinite-threshold"),
        pytest.param(["bounds", "--q", ",", "--s", "5", "--d", "20"], "error: the bounds table needs at least one q",
                     id="bounds-no-q"),
        pytest.param(["separate", "--dicts", "{tmp}/D.csv", "--matrix", "{tmp}/A.csv", "--obs", "{tmp}/y.csv",
                      "--q", "0.7"], "error: separate needs at least two dictionaries", id="separate-one-dictionary"),
        pytest.param(["separate", "--dicts", "{tmp}/I.csv,{tmp}/I2.csv", "--matrix", "{tmp}/A.csv", "--obs",
                      "{tmp}/y.csv", "--q", "0.7"], "error: dictionary 1 is not tight with bound 1",
                     id="separate-not-unit-tight"),
    ],
)
def test_cli_user_errors_exit_2_in_one_line(instance, capsys, argv, start):
    tmp, A, _, _ = instance
    (tmp / "list_spec.json").write_text("[1, 2]")
    q_cell = {"n": 20, "d": 24, "m": 14, "q": 1.5, "s": 6}
    (tmp / "q_spec.json").write_text(json.dumps({"kind": "phase_transition", "grid": [q_cell]}))
    n0_cell = {"n": 0, "d": 24, "m": 14, "q": 0.7, "s": 6}
    (tmp / "n0_spec.json").write_text(json.dumps({"kind": "phase_transition", "grid": [n0_cell]}))
    trials_cell = {"n": 12, "d": 14, "m": 9, "q": 0.7, "s": 4, "trials": 3}
    (tmp / "trials_spec.json").write_text(json.dumps({"kind": "phase_transition", "grid": [trials_cell]}))
    A_rep = A.copy()
    A_rep[3] = A[0]
    np.savetxt(tmp / "A_rep.csv", A_rep, delimiter=",")
    np.savetxt(tmp / "I.csv", np.eye(12), delimiter=",")
    np.savetxt(tmp / "I2.csv", 2 * np.eye(12), delimiter=",")
    rc = main([arg.format(tmp=tmp) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(start)
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
    assert _strict_json((tmp / "out.json").read_text())["f_hat"] == pytest.approx(f, abs=1e-4)
    for text in ("1.0,2.0\n3.0\n", ""):
        (tmp / "A2.csv").write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "A2.csv" in err
        if text:
            assert "A2.csv:2:" in err
