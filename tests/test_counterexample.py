import json

import numpy as np
import pytest

import crlab.counterexample as cx

from crlab import (
    CounterexampleParams,
    ModelSpec,
    ONE_NONMINIMAL,
    ParameterError,
    VanishingOrderEstimate,
    build_counterexample,
    counterexample_certificate,
    vanishing_order,
    verify_disc,
    verify_increment_identity,
)

PARAMS = CounterexampleParams()
GERM = build_counterexample(PARAMS)
MODEL = ModelSpec(ONE_NONMINIMAL, GERM)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        CounterexampleParams(z20=0.0)
    with pytest.raises(ParameterError):
        CounterexampleParams(t0=0.0)
    with pytest.raises(ParameterError):
        CounterexampleParams(r=0.2)  # violates r < |z20|/4
    with pytest.raises(ParameterError):
        CounterexampleParams(z20=2.0, r=0.4, t0=0.5)  # violates 2r < |t0|
    for big in ({"z20": 1e8 * (1 + 1j)}, {"C": 1e20}, {"t0": 1e16}, {"z20": 1e8, "t0": 1e8}):
        with pytest.raises(ParameterError, match="1e8"):
            CounterexampleParams(**big)
    for bad in ({"C": float("nan")}, {"t0": float("inf")}, {"z20": complex(0.5, float("nan"))}):
        with pytest.raises(ParameterError, match="finite"):
            CounterexampleParams(**bad)


def test_value_at_base_point_is_C():
    assert GERM(complex(PARAMS.z20)) == pytest.approx(PARAMS.C, abs=1e-16)


def test_supports_are_separated():
    # near the origin only the flat bump term contributes
    z = 0.05 + 0.02j
    assert GERM(z) == pytest.approx(np.exp(-1.0 / abs(z) ** 2), rel=1e-15)
    # far from both bumps the germ vanishes identically
    assert GERM(0.3j) == 0.0
    assert GERM(-0.3) == 0.0


def test_germ_is_flat_at_origin():
    est = vanishing_order(GERM, 0.0)
    assert est.infinite


def test_finite_order_at_base_point():
    est = vanishing_order(GERM, PARAMS.z20, radii=np.logspace(-3, np.log10(0.05), 10))
    assert est.finite
    assert est.order == 1


def test_increment_identity_on_random_samples():
    rng = np.random.default_rng(7)
    t = 0.9 * PARAMS.r * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 200)
    )
    assert verify_increment_identity(GERM, PARAMS, t) < 1e-14


def test_increment_samples_must_stay_in_plateau():
    with pytest.raises(ParameterError):
        verify_increment_identity(GERM, PARAMS, [PARAMS.r * 1.5])


def test_analytic_discs_lie_on_surface():
    s = np.linspace(-0.04, 0.04, 41)
    tgrid = s + 0.3j * s
    assert verify_disc(MODEL, PARAMS, lambda t: t, tgrid) < 1e-13
    assert verify_disc(MODEL, PARAMS, lambda t: t**2, tgrid) < 1e-13
    assert verify_disc(MODEL, PARAMS, lambda t: 0.5 * t, tgrid) < 1e-13


def test_disc_escape_detected():
    with pytest.raises(ParameterError):
        verify_disc(MODEL, PARAMS, lambda t: 10.0 * t, np.linspace(-0.04, 0.04, 5))


def test_certificate_passes_and_is_deterministic():
    c1 = counterexample_certificate(PARAMS)
    c2 = counterexample_certificate(PARAMS)
    assert c1["verdict"] == "pass"
    assert c1["increment_max_dev"] <= 1e-14
    assert all(v <= 1e-13 for v in c1["disc_residuals"].values())
    assert json.dumps(c1, sort_keys=True) == json.dumps(c2, sort_keys=True)


def test_certificate_with_shifted_parameters():
    params = CounterexampleParams(z20=0.45 + 0.1j, C=-0.2, t0=-0.4, r=0.08)
    cert = counterexample_certificate(params)
    assert cert["verdict"] == "pass"


def test_infinite_order_slope_is_written_as_null(monkeypatch):
    flat = VanishingOrderEstimate(point=PARAMS.z20, order=None, infinite=True,
                                  slope=float("inf"), r2=float("nan"))
    monkeypatch.setattr(cx, "vanishing_order", lambda *args, **kwargs: flat)
    cert = counterexample_certificate(PARAMS)
    assert cert["order_slope"] is None and cert["verdict"] == "fail"
    json.dumps(cert, allow_nan=False)
