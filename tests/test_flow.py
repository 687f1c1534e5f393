import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crlab import (
    FlowTrajectory,
    InsufficientDataError,
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    ParameterError,
    blowup_time_estimate,
    characteristic_flow,
    get_germ,
    integrate_field,
    monomial_field,
    linear_diag_field,
    log_p_diagnostic,
    surface_point,
)
from crlab import flow
from crlab.germs import DEFAULT_RADIUS


def test_linear_field_matches_exponential_solution():
    f = linear_diag_field(-0.5, 1.5)
    z0 = (0.2 + 0.1j, 0.3 - 0.2j)
    T = 2.0
    traj = integrate_field(f, z0, (0.0, T), tol=1e-11)
    exact1 = z0[0] * np.exp(-0.5 * T)
    exact2 = z0[1] * np.exp(1.5j * T)
    assert abs(traj.states[-1, 0] - exact1) < 1e-9
    assert abs(traj.states[-1, 1] - exact2) < 1e-9


def test_flow_preserves_surface_and_reverses():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    f = linear_diag_field(1.0, 2.0)
    z0 = surface_point(model, 0.1, 0.5 + 0j)
    traj = integrate_field(f, z0, (0.0, 5.0), tol=1e-10, model=model)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.rho_residuals)) < 1e-8
    back = integrate_field(f, traj.states[-1], (0.0, -traj.times[-1]), tol=1e-10)
    assert abs(back.states[-1, 0] - z0[0]) < 1e-8
    assert abs(back.states[-1, 1] - z0[1]) < 1e-8


def test_domain_exit_is_detected():
    # growth in z2 pushes past the germ's disk radius
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    f = monomial_field(2, 0, 1, 1.0)
    z0 = surface_point(model, 0.1, 0.5 + 0j)
    traj = integrate_field(f, z0, (0.0, 5.0), tol=1e-10, model=model)
    assert traj.status == "left-domain"
    assert np.all(np.abs(traj.states[:, 1]) <= 0.75 * (1 + 1e-9))


def test_characteristic_rotation_preserves_modulus():
    traj = characteristic_flow(1j, 1, None, 0.3 + 0j, (0.0, 5.0), tol=1e-10)
    assert traj.status == "ok"
    assert np.max(np.abs(np.abs(traj.states) - 0.3)) < 1e-8


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8, 1e-6, 1e-3])
def test_characteristic_decay_reaches_origin_region(tol):
    # The origin radius must stay above atol = tol/100, where the error
    # control stops resolving gamma, or the event never fires.
    traj = characteristic_flow(-1.0, 1, None, 0.3 + 0j, (0.0, 80.0), tol=tol)
    assert traj.status == "reached-origin"


def test_blowup_estimate_matches_exact_pole():
    # gamma' = gamma^2 from real z0 > 0 blows up at exactly 1/z0
    for z0 in (0.3, 0.15):
        traj = characteristic_flow(1.0, 2, None, z0, (0.0, 30.0), tol=1e-12)
        assert traj.status == "left-domain"
        est = blowup_time_estimate(traj, 1.0, 2)
        assert abs(est - 1.0 / z0) / (1.0 / z0) < 0.01


def test_perturbed_characteristic_accepts_constant_and_callable():
    t1 = characteristic_flow(1j, 1, 0.0, 0.3, (0.0, 1.0))
    t2 = characteristic_flow(1j, 1, lambda z: 0.0, 0.3, (0.0, 1.0))
    assert np.allclose(t1.states, t2.states)


def test_log_p_slope_for_exponential_decay():
    # gamma = 0.5 e^{-t}, P = |z|^2  =>  u = log|gamma| has slope -1
    traj = characteristic_flow(-1.0, 1, None, 0.5, (0.0, 3.0), tol=1e-12)
    u, (delta_hat, rms, linear) = log_p_diagnostic(get_germ("control"), traj)
    assert abs(delta_hat + 1.0) < 1e-6
    assert linear
    assert traj.u_values is not None


def test_log_p_underflow_raises():
    times = np.linspace(0, 1, 50)
    states = np.full(50, 1e-4 + 0j)  # exp(-1/1e-4) underflows
    traj = FlowTrajectory(times, states)
    with pytest.raises(InsufficientDataError):
        log_p_diagnostic(get_germ("p1"), traj)


def test_trajectory_csv_round(tmp_path):
    traj = characteristic_flow(1j, 1, None, 0.3, (0.0, 1.0))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,re_z1")
    assert len(lines) == len(traj.times) + 1


def test_parameter_validation():
    with pytest.raises(ParameterError):
        characteristic_flow(1.0, -1, None, 0.3, (0.0, 1.0))
    with pytest.raises(ParameterError):
        characteristic_flow(1.0, 1, None, 0.0, (0.0, 1.0))
    with pytest.raises(ParameterError):
        characteristic_flow(1.0, 1, None, 0.3, (0.0, 1.0), tol=1.0)
    with pytest.raises(ParameterError, match="tol must lie in"):
        characteristic_flow(1.0, 1, None, 0.3, (0.0, 1.0), tol=1.1e-14)
    traj = FlowTrajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2], dtype=complex))
    with pytest.raises(ParameterError):
        blowup_time_estimate(traj, 1.0, 1)


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0, 5e-324])
def test_non_finite_time_span_rejected(t_end):
    with pytest.raises(ParameterError):
        characteristic_flow(1j, 1, None, 0.3, (0.0, t_end))
    with pytest.raises(ParameterError):
        integrate_field(linear_diag_field(1.0, 2.0), (0.0, 0.3), (0.0, t_end))


def test_non_finite_field_rejected():
    with pytest.raises(ParameterError):
        integrate_field(linear_diag_field(float("nan"), 2.0), (0.1, 0.3), (0.0, 1.0))
    with pytest.raises(ParameterError):
        characteristic_flow(float("nan"), 1, None, 0.3, (0.0, 1.0))


def test_step_budget_stops_a_long_integration(monkeypatch):
    from crlab import flow

    f = linear_diag_field(1.0, 2.0)
    traj = integrate_field(f, (0.1, 0.3), (0.0, 1.0))
    assert traj.status == "ok"
    monkeypatch.setattr(flow, "MAX_RHS_EVALS", 50)
    with pytest.raises(ParameterError, match="more than 50 right-hand-side"):
        integrate_field(f, (0.1, 0.3), (0.0, 1.0))
    with pytest.raises(ParameterError, match="more than 50 right-hand-side"):
        characteristic_flow(1j, 1, None, 0.3, (0.0, 5.0))


def test_start_state_whose_scaled_norm_overflows_is_rejected():
    # |rhs / atol| ~ 3e161 is finite, but its square, which the step-size
    # heuristic forms, is not.
    with pytest.raises(ParameterError, match="at the initial state"):
        integrate_field(linear_diag_field(1.0, 1e150), (0.1, 0.3), (0.0, 1.0))


def test_state_overflow_ends_the_integration():
    # z1 = 0.1 e^(1000 t) passes the overflow limit near t = 0.31.
    with pytest.raises(ParameterError, match=r"overflows at t = 0\.31"):
        integrate_field(linear_diag_field(1e3, 2.0), (0.1, 0.3), (0.0, 5.0))
    # gamma^400 overflows a Python complex power at the start state.
    with pytest.raises(ParameterError, match="at the initial state"):
        characteristic_flow(1.0, 400, None, 6.0, (0.0, 1.0))


@pytest.mark.parametrize("m, first_bad", [(264, "5"), (400, "4.08203")])
def test_rho_that_overflows_along_the_flow_is_rejected(m, first_bad):
    # The state stays finite, but (Re z1)^m = (0.1 e^t)^m overflows from
    # t = log(10^(308.25 / m + 1)): 4.99 for m = 264, 4.08 for m = 400.
    # The samples are 5/256 apart.
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=m)
    z0 = surface_point(model, 0.1, 0.5 + 0j)
    with pytest.raises(ParameterError, match=rf"not finite along the flow from t = {first_bad}$"):
        integrate_field(linear_diag_field(1.0, 2.0), z0, (0.0, 5.0), model=model)


def _reference_flows():
    """The reference flows with the right-hand-side evaluations each takes
    (the count scipy's RK45 takes on them, too)."""
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    z0 = surface_point(model, 0.1, 0.5 + 0j)
    f = linear_diag_field(1.0, 2.0)
    # y' = 1 from t = 0.5 on: steps across the jump are rejected, and the
    # step after a rejection must not grow.
    jump = lambda t, y: [1.0 if t >= 0.5 else 0.0, 0.0]  # noqa: E731
    return {
        "criterion-06": (lambda: integrate_field(f, z0, (0.0, 5.0), tol=1e-10, model=model), 1772),
        "rotation": (lambda: characteristic_flow(1j, 1, None, 0.3, (0.0, 5.0), tol=1e-10), 944),
        "blow-up": (lambda: characteristic_flow(1.0, 2, None, 0.3, (0.0, 30.0), tol=1e-12), 566),
        "decay": (lambda: characteristic_flow(-1.0, 1, None, 0.3, (0.0, 80.0), tol=1e-10), 1244),
        "jump": (lambda: flow._solve(jump, (0.0, 1.0), [0.0, 1.0], 1e-8, []), 356),
    }


REFERENCE_FLOWS = ["criterion-06", "rotation", "blow-up", "decay", "jump"]


@pytest.fixture
def integrations(monkeypatch):
    """Records the arguments and the end time of every
    ``flow._dormand_prince`` call: the time the integration ended, at the
    span's end or where a terminal event fired."""
    calls = []
    dormand_prince = flow._dormand_prince

    def recording(*args):
        result = dormand_prince(*args)
        calls.append((args, result[2]))
        return result

    monkeypatch.setattr(flow, "_dormand_prince", recording)
    return calls


@pytest.mark.parametrize("name", REFERENCE_FLOWS)
def test_reference_flows_take_pinned_rhs_evaluations(name):
    run, nfev = _reference_flows()[name]
    traj = run()
    assert traj.nfev == nfev
    # one evaluation at the start, one for the first step size, six a step
    assert 0 < 6 * traj.accepted_steps <= traj.nfev - 2
    assert (traj.nfev - 2) % 6 == 0


def test_terminal_event_times_match_closed_forms(integrations, monkeypatch):
    # gamma' = gamma^2 from x0: gamma = x0/(1 - x0 t) leaves |gamma| = R at
    # t = 1/x0 - 1/R.
    traj = characteristic_flow(1.0, 2, None, 0.3, (0.0, 30.0), tol=1e-12)
    assert traj.status == "left-domain"
    t_end = integrations[-1][1]
    assert abs(t_end - (1 / 0.3 - 1 / DEFAULT_RADIUS)) < 1e-9
    # gamma = 0.3 e^(-t) reaches radius r0 at t = ln(0.3 / r0).  At the
    # default r0 = max(1e-12, tol), only 100 atol, the time is good to
    # about 2e-3 only, so the check uses r0 = 1e-3.
    monkeypatch.setattr(flow, "ORIGIN_RADIUS", 1e-3)
    traj = characteristic_flow(-1.0, 1, None, 0.3, (0.0, 80.0), tol=1e-12)
    assert traj.status == "reached-origin"
    t_end = integrations[-1][1]
    assert abs(t_end - math.log(0.3 / 1e-3)) < 1e-9


@pytest.mark.parametrize("name", REFERENCE_FLOWS)
def test_reference_flows_agree_with_scipy_rk45(name, integrations):
    integrate = pytest.importorskip("scipy.integrate")
    run, _ = _reference_flows()[name]
    traj = run()
    (rhs, t0, t1, y0, tol, _, _, events), t_end = integrations[-1]
    t_span = (t0, t1)

    def scipy_event(event):
        wrapped = lambda t, y: event(t, y)  # noqa: E731
        wrapped.terminal, wrapped.direction = True, event.direction
        return wrapped

    sol = integrate.solve_ivp(
        lambda t, y: rhs(t, y.tolist()), t_span, y0, method="RK45", rtol=tol,
        atol=tol * 1e-2, t_eval=np.linspace(t_span[0], t_span[1], flow.N_SAMPLES),
        events=[scipy_event(e) for e in events] or None,
    )
    assert sol.nfev == traj.nfev
    assert np.array_equal(sol.t, traj.times)
    states = (sol.y[0::2] + 1j * sol.y[1::2]).T
    assert np.max(np.abs(states.reshape(traj.states.shape) - traj.states)) < 1e-12
    # The end times agree to within the time the state takes to move 1e-12:
    # the decay flow's event sits at |gamma| = atol, where the two error
    # norms differ in their leading digits and so do the last step sizes.
    fired = [te[0] for te in (sol.t_events or []) if len(te)]
    speed = np.max(np.abs(rhs(t_end, sol.y[:, -1].tolist())))
    assert abs((fired[0] if fired else t_span[1]) - t_end) * speed < 1e-12


def test_flows_run_with_scipy_blocked(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from crlab import characteristic_flow, cli\n"
        "assert cli.main(['flow', '--out-dir', sys.argv[1]]) == 0\n"
        "print(characteristic_flow(1j, 1, None, 0.3, (0.0, 5.0)).status)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], cwd=src, capture_output=True,
        text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "trajectory.json").exists()


def test_step_size_below_roundoff_fails():
    # y' = 1/(t - 0.3): the local error stays O(1) however small the step.
    with pytest.raises(ParameterError, match="Required step size is less than spacing"):
        flow._solve(lambda t, y: [1.0 / (t - 0.3), 0.0], (0.0, 1.0), [0.0, 0.0], 1e-10, [])
