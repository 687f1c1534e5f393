import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crlab.cli import main


def run(args, tmp_path):
    return main(list(args) + ["--out-dir", str(tmp_path)])


def test_solve_writes_report_and_exits_zero(tmp_path):
    assert run(["solve", "--germ", "p1"], tmp_path) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["dimension"] == 2
    assert report["labels"] == ["z1 dz1", "i z2 dz2"]
    assert report["config"]["germ"] == "p1"


def test_solve_zero_germ_is_invalid_input(tmp_path, capsys):
    assert run(["solve", "--germ", "zero"], tmp_path) == 2
    assert "not identically zero" in capsys.readouterr().err


def test_solve_report_is_byte_deterministic(tmp_path):
    main(["solve", "--germ", "p2", "--out-dir", str(tmp_path)])
    b1 = (tmp_path / "solve_report.json").read_bytes()
    main(["solve", "--germ", "p2", "--out-dir", str(tmp_path)])
    b2 = (tmp_path / "solve_report.json").read_bytes()
    assert b1 == b2


def test_verify_pass_and_fail_exit_codes(tmp_path):
    assert run(["verify", "--germ", "p1", "--map", "rotate:0.7"], tmp_path) == 0
    code = run(["verify", "--germ", "p2", "--map", f"rotate:{np.pi / 2}"], tmp_path)
    assert code == 1
    verdict = json.loads((tmp_path / "verify_verdict.json").read_text())
    assert verdict["verdict"] == "fail"


def test_verify_unknown_map_is_invalid(tmp_path):
    assert run(["verify", "--map", "shear:1.0"], tmp_path) == 2


def test_flow_writes_trajectory_csv(tmp_path):
    assert run(["flow", "--germ", "p1", "--t-end", "2.0"], tmp_path) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,rho,u"
    assert len(lines) > 100
    summary = json.loads((tmp_path / "trajectory.json").read_text())
    assert summary["max_abs_rho"] < 1e-8


def test_vtype_scan(tmp_path):
    assert run(["vtype", "--germ", "p1"], tmp_path) == 0
    text = (tmp_path / "vtype_scan.csv").read_text()
    assert "inf" in text
    # the origin, then three rings of eight points
    rows = text.splitlines()
    assert len(rows) == 1 + 25
    assert rows[1].split(",")[:2] == ["0.0", "0.0"]


def test_counterexample_certificate(tmp_path):
    assert run(["counterexample"], tmp_path) == 0
    cert = json.loads((tmp_path / "counterexample_certificate.json").read_text())
    assert cert["verdict"] == "pass"


def test_import_leaves_scipy_integrate_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, crlab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_empty_null_space_report_is_strict_json(tmp_path):
    assert run(["solve", "--germ", "p2", "--family", "m-nonminimal"], tmp_path) == 0
    text = (tmp_path / "solve_report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["dimension"] == 0
    assert report["gap"] is None


def test_counterexample_bad_params(tmp_path):
    assert run(["counterexample", "--r", "0.2"], tmp_path) == 2


def test_examples_subset(tmp_path):
    assert run(["examples", "--which", "asymmetric"], tmp_path) == 0
    report = json.loads((tmp_path / "examples_report.json").read_text())
    assert report["results"]["asymmetric"]["ok"]


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("germ = p2\njet = 4\n")
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["config"]["germ"] == "p2"
    assert report["jet_order"] == 4
    # explicit flags override the file
    code = main(["solve", "--config", str(cfg), "--germ", "p1", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["config"]["germ"] == "p1"


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CRLAB_OUT", str(tmp_path))
    assert main(["vtype", "--germ", "p1"]) == 0
    assert (tmp_path / "vtype_scan.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["flow", "--germ", "p1", "--t-end", "nan"],
        ["flow", "--germ", "p1", "--alpha", "nan"],
        ["verify", "--germ", "p1", "--map", "rotate:nan"],
        ["vtype", "--germ", "p1", "--k-max", "0"],
        ["solve", "--germ", "p1", "--a", "nan"],
        ["counterexample", "--t0", "nan"],
    ],
)
def test_non_finite_or_out_of_range_input_is_invalid(args, tmp_path):
    assert run(args, tmp_path) == 2


@pytest.mark.parametrize(
    "args",
    [
        # The first step size of the integrator overflowed to NaN: a hang.
        ["flow", "--germ", "p1", "--beta", "1e300"],
        # Finite but large fields ran for minutes or never ended: the
        # integrator had no step budget.
        ["flow", "--germ", "p1", "--beta", "1e3"],
        ["flow", "--germ", "p1", "--beta", "1e150"],
        # Below the roundoff floor the null space came out empty, "confident".
        ["solve", "--germ", "p1", "--tau", "1e-300"],
        # The state overflowed: a complex-power OverflowError traceback.
        ["flow", "--alpha", "1e3"],
        # An empty span gave no samples; a subnormal one unsorted samples.
        ["flow", "--t-end", "0"],
        ["flow", "--t-end", "5e-324"],
        # scipy raised rtol to 100 eps with a UserWarning.
        ["flow", "--tol", "1.1e-14"],
        # The bump's mollifier legs both underflowed: NaN in the germ.
        ["counterexample", "--r", "0.001"],
    ],
)
def test_out_of_range_input_exits_2_in_a_subprocess(args, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "crlab.cli", *args, "--out-dir", str(tmp_path)],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr and "Warning" not in out.stderr


@pytest.mark.parametrize("tail", [[], ["--out-dir", "x"]])
def test_config_without_path_is_invalid(tail, capsys):
    assert main(["solve", "--config", *tail]) == 2
    assert "--config needs a file path" in capsys.readouterr().err
