import numpy as np
import pytest

from crlab import (
    InsufficientDataError,
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
    trajectory_from_samples,
)


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


def test_characteristic_decay_reaches_origin_region():
    traj = characteristic_flow(-1.0, 1, None, 0.3 + 0j, (0.0, 80.0), tol=1e-10)
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
    traj = trajectory_from_samples(times, states)
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
    with pytest.raises(ParameterError):
        trajectory_from_samples([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ParameterError):
        blowup_time_estimate(trajectory_from_samples([0, 1], [0.1, 0.2]), 1.0, 1)


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
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
