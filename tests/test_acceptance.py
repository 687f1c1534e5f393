"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in failure output).
"""

import json
import time

import numpy as np
import pytest

from crlab import (
    CounterexampleParams,
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    Rotate,
    SampleGrid,
    TranslateIm,
    blowup_time_estimate,
    characteristic_flow,
    check_modulus_derivative,
    check_reparam,
    counterexample_certificate,
    default_grid,
    get_germ,
    integrate_field,
    invariance_residual,
    linear_diag_field,
    monomial_field,
    solve_model,
    surface_point,
    tangency_residual,
    validation_residual,
    vanishing_order,
)
from crlab.autsolve import CERT_TOL, shell_points, validation_grid
from crlab.germs import SmoothGerm


def _verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_rotational_flat_model_dimension_two():
    t0 = time.time()
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    basis, report = solve_model(model)
    elapsed = time.time() - t0
    ok = (
        basis.dimension == 2
        and basis.gap >= 1e3
        and set(basis.labels) == {"z1 dz1", "i z2 dz2"}
        and all(p <= 1e-6 for p in report["projection_residuals"])
        and elapsed <= 10.0
    )
    _verdict(
        "criterion-01 (rotational flat model: 2-dim algebra)",
        ok,
        f"dim={basis.dimension} gap={basis.gap:.2e} labels={basis.labels} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_02_asymmetric_flat_model_dimension_one():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    basis, _ = solve_model(model)
    ok = basis.dimension == 1 and basis.gap >= 1e3 and basis.labels == ["z1 dz1"]
    _verdict(
        "criterion-02 (asymmetric flat model: 1-dim algebra)",
        ok,
        f"dim={basis.dimension} gap={basis.gap:.2e} labels={basis.labels}",
    )


def test_criterion_03_tubular_model_origin_constraint():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
    free, _ = solve_model(model, vanish_at_origin=False)
    fixed, _ = solve_model(model, vanish_at_origin=True)
    ok = (
        free.dimension == 2
        and set(free.labels) == {"z1 dz1", "i dz2"}
        and fixed.dimension == 1
        and fixed.labels == ["z1 dz1"]
    )
    _verdict(
        "criterion-03 (tubular model: translation killed by origin constraint)",
        ok,
        f"free={free.labels} fixed={fixed.labels}",
    )


def test_criterion_04_higher_order_family_collapses():
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    basis, _ = solve_model(model)
    dim_ok = basis.dimension == 1 and basis.labels == ["i z2 dz2"] and basis.confident

    # The two directions that are tangent on the first family must fail the
    # certificate here, and their residuals must agree with the closed forms
    # -t^2 P / 2 and t^5 P^3 on the validation grid.
    vg = validation_grid()
    T, Z = vg.samples()
    p = np.asarray(model.germ(Z), dtype=float)

    f1 = monomial_field(1, 1, 0, 1.0)
    r1 = validation_residual(model, f1)
    exp1 = float(np.max(np.abs(T**2 * p / 2.0)))
    f2 = monomial_field(1, 2, 0, 1.0)
    r2 = validation_residual(model, f2)
    exp2 = float(np.max(np.abs(T**5 * p**3)))

    resid_ok = (
        r1 > CERT_TOL and r1 >= 1e-3 and abs(r1 - exp1) < 1e-12
        and r2 > CERT_TOL and r2 >= 1e-6 and abs(r2 - exp2) < 1e-12
    )
    _verdict(
        "criterion-04 (order-2 family: algebra collapses to rotation)",
        dim_ok and resid_ok,
        f"dim={basis.dimension} labels={basis.labels} "
        f"r(z1 d1)={r1:.2e} r(z1^2 d1)={r2:.2e}",
    )


def test_criterion_05_exact_tangency_on_dense_grid():
    t = np.linspace(-0.3, 0.3, 50)
    z2 = shell_points((0.15, 0.25, 0.35, 0.45, 0.55), 10)
    grid = SampleGrid(t_values=tuple(t), z2_values=z2)
    T, Z = grid.samples()
    assert grid.n == 2500
    worst = 0.0
    for gid in ("p1", "p2", "p3", "zero", "control", "counterexample"):
        model = ModelSpec(ONE_NONMINIMAL, get_germ(gid))
        r = tangency_residual(model, monomial_field(1, 1, 0, 1.0), T, Z)
        worst = max(worst, float(np.max(np.abs(r))))
    m1 = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    ri = tangency_residual(m1, monomial_field(1, 0, 0, 1j), T, Z)
    half_p = np.asarray(m1.germ(Z), dtype=float) / 2.0
    dev = float(np.max(np.abs(ri - half_p)))
    ok = worst <= 1e-14 and dev <= 1e-14
    _verdict(
        "criterion-05 (pointwise tangency identities on 2500 samples)",
        ok,
        f"max|res(z1 d1)|={worst:.2e} max|res(i d1)-P/2|={dev:.2e}",
    )


def test_criterion_06_flow_invariance_and_reversibility():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    f = linear_diag_field(1.0, 2.0)
    z0 = surface_point(model, 0.1, 0.5 + 0j)
    traj = integrate_field(f, z0, (0.0, 5.0), tol=1e-10, model=model)
    max_rho = float(np.max(np.abs(traj.rho_residuals)))
    back = integrate_field(f, traj.states[-1], (0.0, -traj.times[-1]), tol=1e-10)
    rev = float(np.max(np.abs(back.states[-1] - np.asarray(z0))))
    ok = traj.status == "ok" and max_rho <= 1e-8 and rev <= 1e-8
    _verdict(
        "criterion-06 (flow of z1 d1 + 2i z2 d2 stays on the surface)",
        ok,
        f"max|rho|={max_rho:.2e} reversal={rev:.2e}",
    )


def test_criterion_07_characteristic_flow_benchmarks():
    rot = characteristic_flow(1j, 1, None, 0.3 + 0j, (0.0, 5.0), tol=1e-10)
    mod_dev = float(np.max(np.abs(np.abs(rot.states) - 0.3)))
    pole = characteristic_flow(1.0, 2, None, 0.3, (0.0, 30.0), tol=1e-12)
    est = blowup_time_estimate(pole, 1.0, 2)
    rel = abs(est - 1.0 / 0.3) * 0.3
    ok = mod_dev <= 1e-8 and rel <= 0.01
    _verdict(
        "criterion-07 (characteristic ODE: rotation and blow-up)",
        ok,
        f"|gamma| dev={mod_dev:.2e} blow-up rel err={rel:.2%}",
    )


def test_criterion_08_vanishing_order_estimator():
    inf_ok = all(vanishing_order(get_germ(g), 0.0).infinite for g in ("p1", "p2", "p3"))
    off = vanishing_order(get_germ("p1"), 0.5)
    orders = []
    for k in (1, 2, 3, 4):
        germ = SmoothGerm(
            id=f"pow{2 * k}", radius=0.75,
            eval_fn=lambda z, k=k: np.abs(z) ** (2 * k),
            wirt_fn=lambda z, k=k: k * np.abs(z) ** (2 * (k - 1)) * np.conj(z),
        )
        orders.append(vanishing_order(germ, 0.0).order)
    ok = inf_ok and off.order == 1 and orders == [2, 4, 6, 8]
    _verdict(
        "criterion-08 (vanishing-order estimator)",
        ok,
        f"flat-at-0={inf_ok} order@0.5={off.order} even orders={orders}",
    )


def test_criterion_09_strict_inclusion_certificate():
    cert = counterexample_certificate(CounterexampleParams())
    ok = (
        cert["verdict"] == "pass"
        and cert["increment_max_dev"] <= 1e-14
        and all(v <= 1e-13 for v in cert["disc_residuals"].values())
        and cert["order_at_z20"] is not None
    )
    _verdict(
        "criterion-09 (infinite-type point over a finite-order base point)",
        ok,
        f"inc={cert['increment_max_dev']:.2e} discs={cert['disc_residuals']} "
        f"order={cert['order_at_z20']}",
    )


def test_criterion_10_map_verification():
    g = default_grid()
    p1 = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    p2 = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    p3 = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
    r_rot = invariance_residual(p1, Rotate(0.7), g)
    r_tr = invariance_residual(p3, TranslateIm(0.1), g)
    r_bad = invariance_residual(p2, Rotate(np.pi / 2), g)
    mod = check_modulus_derivative((0.0, np.exp(0.7j)))
    sample = [0.05 + 0.3 * np.exp(2j * np.pi * q / 40) for q in range(40)]
    _, delta = check_reparam(get_germ("p1"), (0.0, np.exp(0.7j)), sample)
    ok = (
        r_rot <= 1e-14 and r_tr <= 1e-14 and r_bad >= 1e-3
        and mod == 0.0 and abs(delta - 1.0) <= 1e-8
    )
    _verdict(
        "criterion-10 (automorphism verification residuals)",
        ok,
        f"rot={r_rot:.2e} transIm={r_tr:.2e} broken={r_bad:.2e} "
        f"|g2'(0)|-1={mod:.1e} delta={delta:.12f}",
    )


def test_criterion_11_deterministic_reports():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    _, rep_a = solve_model(model)
    _, rep_b = solve_model(model)
    solve_ok = json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    c_a = counterexample_certificate(CounterexampleParams())
    c_b = counterexample_certificate(CounterexampleParams())
    cert_ok = json.dumps(c_a, sort_keys=True) == json.dumps(c_b, sort_keys=True)
    _verdict(
        "criterion-11 (byte-identical JSON payloads across runs)",
        solve_ok and cert_ok,
        f"solve={solve_ok} certificate={cert_ok}",
    )
