import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crlab.cli import main


# A 400-digit integer: it parses as an int but has no float value.
HUGE_INT = str(10**399)


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


@pytest.mark.parametrize("s", ["1e6", "-1e6", "1e12"])
def test_verify_large_z1_scale_passes(tmp_path, s):
    # z1 -> s z1 maps a one-nonminimal model to itself at every real s; the
    # residual's roundoff grows with |w1|, and so does the bound.
    assert run(["verify", "--germ", "p1", "--map", f"scale:{s}"], tmp_path) == 0
    verdict = json.loads((tmp_path / "verify_verdict.json").read_text())
    assert verdict["verdict"] == "pass"
    assert verdict["residual"] > 1e-12


def test_verify_large_z1_scale_fails_on_m_nonminimal(tmp_path):
    # There rho(s z1, z2) = s Im z1 - s^m (Re z1)^m P: not a symmetry.
    args = ["verify", "--germ", "p1", "--family", "m-nonminimal", "--map", "scale:1e6"]
    assert run(args, tmp_path) == 1
    assert json.loads((tmp_path / "verify_verdict.json").read_text())["verdict"] == "fail"


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


@pytest.mark.parametrize("flag, value", [("--z20-re", "1e3"), ("--z20-re", "1e5"),
                                         ("--z20-im", "1e3"), ("--z20-re", "1e8"),
                                         ("--C", "300"), ("--C", "1e3"), ("--C", "-1e8"),
                                         ("--t0", "3e3"), ("--t0", "-1e4"), ("--t0", "1e8")])
def test_counterexample_far_base_point_passes(tmp_path, flag, value):
    # The construction holds for every z20 != 0, C and t0 != 0; its roundoff
    # grows with |z20|, |C| and |t0 C|.
    assert run(["counterexample", f"{flag}={value}"], tmp_path) == 0
    cert = json.loads((tmp_path / "counterexample_certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["order_at_z20"] == 1


@pytest.mark.parametrize("flag, value", [("--z20-re", "1e16"), ("--z20-re", "1e308"),
                                         ("--z20-im", "1e9"), ("--t0", "1e16"),
                                         ("--C", "1e20")])
def test_counterexample_base_point_beyond_1e8_is_rejected(tmp_path, flag, value):
    # Past |z20| = 1e8, |C| = 1e8 or |t0| = 1e8 the roundoff-scaled bounds
    # stop resolving the increments, so no certificate is written, let alone
    # a passing one.  At t0 = 1e16 the order's slope was inf, and the report
    # failed to serialise.
    assert run(["counterexample", flag, value], tmp_path) == 2
    assert not (tmp_path / "counterexample_certificate.json").exists()


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
        # Refused by its size before any work that grows with the jet order.
        ["solve", "--jet", "100000000"],
        ["solve", "--family", "rigid", "--jet", "100000000"],
        ["solve", "--family", "m-nonminimal", "--m", "2", "--jet", "100000000"],
    ],
)
def test_non_finite_or_out_of_range_input_is_invalid(args, tmp_path):
    assert run(args, tmp_path) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        # exp(-1/|z|^20) is 0 at every sampled z2: the Levi-flat model.
        (["solve", "--germ", "p1", "--a", "20"], "not identically zero"),
        (["solve", "--family", "m-nonminimal", "--m", "1"], "require integer m >= 2"),
        (["flow", "--z2-re", "nan"], "outside the domain disk"),
        (["flow", "--t0", "nan"], "t must be finite"),
        # exp(-1/|z|^8) is at most 2e-52 at the z2 points: below tau.
        (["solve", "--germ", "p1", "--a", "8"], "not above 1e-08"),
        # Integers beyond the float range: OverflowError tracebacks before.
        (["vtype", "--k-max", HUGE_INT], "K_max must be finite"),
        (["solve", "--family", "m-nonminimal", "--m", HUGE_INT], "float range"),
        (["flow", "--family", "m-nonminimal", "--m", HUGE_INT], "float range"),
        (["verify", "--family", "m-nonminimal", "--m", HUGE_INT, "--map", "rotate:0.7"],
         "float range"),
    ],
)
def test_invalid_input_message_comes_from_the_owning_rule(args, message, tmp_path, capsys):
    assert run(args, tmp_path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("m", ["20", "400"])
def test_solve_m_nonminimal_large_m_is_confident(m, tmp_path):
    # The exact t-coefficients carry t^m P whatever m is.
    assert run(["solve", "--family", "m-nonminimal", "--m", m], tmp_path) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["dimension"] == 1 and report["labels"] == ["i z2 dz2"]


def test_flow_whose_rho_overflows_exits_2_and_writes_nothing(tmp_path, capsys):
    # Re z1 reaches 14.8 along the default flow, and 14.8^264 overflows.
    assert run(["flow", "--family", "m-nonminimal", "--m", "264"], tmp_path) == 2
    assert "rho is not finite along the flow from t = 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_example_id_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["examples", "--which", "nope"], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "nope" in err


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
        # P underflowed to 0 at every sample: a "confident" dimension 45.
        ["solve", "--germ", "p1", "--a", "20"],
        # The state overflowed: a complex-power OverflowError traceback.
        ["flow", "--alpha", "1e3"],
        # An empty span gave no samples; a subnormal one unsorted samples.
        ["flow", "--t-end", "0"],
        ["flow", "--t-end", "5e-324"],
        # scipy raised rtol to 100 eps with a UserWarning.
        ["flow", "--tol", "1.1e-14"],
        # The bump's mollifier legs both underflowed: NaN in the germ.
        ["counterexample", "--r", "0.001"],
        # (Re z1)^264 overflowed in rho: a RuntimeWarning, then a JSON error.
        ["flow", "--family", "m-nonminimal", "--m", "264"],
        # An int beyond the float range: an OverflowError traceback.
        ["vtype", "--k-max", HUGE_INT],
        ["solve", "--family", "m-nonminimal", "--m", HUGE_INT],
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


# Each subcommand's numeric flags; --m is read only under the m-nonminimal
# family, so its cases select it.
NUMERIC_FLAGS = {
    "solve": ["--a", "--m", "--jet", "--tau"],
    "flow": ["--a", "--m", "--alpha", "--beta", "--t0", "--z2-re", "--z2-im", "--t-end", "--tol"],
    "vtype": ["--a", "--k-max"],
    "verify": ["--a", "--m"],
    "counterexample": ["--z20-re", "--z20-im", "--C", "--t0", "--r"],
}
EDGE_VALUES = ["nan", "inf", "-inf", "0", "1e308", "-1"]
INT_FLAGS = {"--m", "--jet", "--k-max"}
FUZZ_CASES = [
    [command, f"{flag}={value}", *(["--family", "m-nonminimal"] if flag == "--m" else []),
     *(["--map", "rotate:0.7"] if command == "verify" else [])]
    for command, flags in NUMERIC_FLAGS.items()
    for flag in flags
    for value in EDGE_VALUES + ([HUGE_INT] if flag in INT_FLAGS else [])
] + [
    ["solve", "--jet", "40"],
    *([command, "--family", "m-nonminimal", "--m", "400", *extra]
      for command, extra in (("solve", []), ("flow", []), ("verify", ["--map", "rotate:0.7"]))),
    *(["verify", "--map", spec] for spec in ("scale:0", "rotate:", "foo", "scale:1e308")),
    ["examples", "--which"],
]


@pytest.mark.parametrize("args", FUZZ_CASES, ids=" ".join)
def test_cli_edge_values_exit_cleanly(args, tmp_path):
    # pytest turns a RuntimeWarning into an error, so none may be raised.
    try:
        code = run(args, tmp_path)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code in (0, 1, 2)
    for path in tmp_path.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
