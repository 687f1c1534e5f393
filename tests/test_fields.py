"""Field evaluation plus the closed-form tangency residuals used as oracles
throughout the solver tests."""

import struct

import numpy as np
import pytest

from crlab import (
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    VectorFieldPoly,
    get_germ,
    linear_diag_field,
    monomial_field,
    surface_point,
    tangency_residual,
)
from crlab.autsolve import VALIDATION_POINTS

T_GRID = np.linspace(-0.3, 0.3, 9)
Z2_GRID = np.array([0.2, 0.35 * np.exp(0.7j), 0.5 * np.exp(2.1j), 0.55 * np.exp(-1.3j)])


def _max_residual(model, f):
    T, Z = np.meshgrid(T_GRID, Z2_GRID, indexing="ij")
    return np.max(np.abs(tangency_residual(model, f, T.ravel(), Z.ravel())))


def test_eval_and_algebra():
    f = VectorFieldPoly({(1, 0): 2.0, (0, 1): 1j}, {(0, 2): -1.0})
    h1, h2 = f.eval(0.5 + 0.5j, 0.25j)
    assert h1 == pytest.approx(2 * (0.5 + 0.5j) + 1j * 0.25j)
    assert h2 == pytest.approx(-((0.25j) ** 2))
    assert f.max_coefficient() == 2.0


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        VectorFieldPoly({(-1, 0): 1.0}, {})


@pytest.mark.parametrize("gid", ["p1", "p2", "p3", "control", "counterexample"])
def test_z1_dz1_is_exactly_tangent_on_one_nonminimal(gid):
    model = ModelSpec(ONE_NONMINIMAL, get_germ(gid))
    assert _max_residual(model, monomial_field(1, 1, 0, 1.0)) == 0.0


def test_i_dz1_residual_equals_half_P():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    f = monomial_field(1, 0, 0, 1j)
    T, Z = np.meshgrid(T_GRID, Z2_GRID, indexing="ij")
    r = tangency_residual(model, f, T.ravel(), Z.ravel())
    expected = np.asarray(model.germ(Z.ravel()), dtype=float) / 2.0
    assert np.max(np.abs(r - expected)) < 1e-16


def test_i_z2_dz2_tangent_iff_rotational():
    f = monomial_field(2, 0, 1, 1j)
    rot = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    assert _max_residual(rot, f) < 1e-17
    broken = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    assert _max_residual(broken, f) > 1e-3


def test_i_dz2_tangent_iff_tubular():
    f = monomial_field(2, 0, 0, 1j)
    tub = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
    assert _max_residual(tub, f) == 0.0
    assert _max_residual(ModelSpec(ONE_NONMINIMAL, get_germ("p1")), f) > 1e-3


def test_m2_model_z1_dz1_residual_closed_form():
    # On the m = 2 family the residual of z1 dz1 is -t^2 P(z2) / 2.
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    f = monomial_field(1, 1, 0, 1.0)
    T, Z = np.meshgrid(T_GRID, Z2_GRID, indexing="ij")
    r = tangency_residual(model, f, T.ravel(), Z.ravel())
    p = np.asarray(model.germ(Z.ravel()), dtype=float)
    expected = -T.ravel() ** 2 * p / 2.0
    assert np.max(np.abs(r - expected)) < 1e-14


def test_m2_model_z1sq_dz1_residual_closed_form():
    # Residual of z1^2 dz1 on the m = 2 family is t^5 P(z2)^3.
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    f = monomial_field(1, 2, 0, 1.0)
    T, Z = np.meshgrid(T_GRID, Z2_GRID, indexing="ij")
    r = tangency_residual(model, f, T.ravel(), Z.ravel())
    p = np.asarray(model.germ(Z.ravel()), dtype=float)
    expected = T.ravel() ** 5 * p**3
    assert np.max(np.abs(r - expected)) < 1e-14


def test_m2_model_i_z2_dz2_tangent_for_rotational_P():
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    assert _max_residual(model, monomial_field(2, 0, 1, 1j)) < 1e-17


def test_residual_is_real_linear_in_coefficients():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    f = monomial_field(1, 0, 2, 1 + 1j)
    g = monomial_field(2, 1, 1, -2j)
    t, z2 = 0.2, 0.4 + 0.1j
    rf = tangency_residual(model, f, t, z2)
    rg = tangency_residual(model, g, t, z2)
    rsum = tangency_residual(model, VectorFieldPoly({(0, 2): 1 + 1j}, {(1, 1): -2j}), t, z2)
    assert rsum == pytest.approx(rf + rg, abs=1e-16)
    r3f = tangency_residual(model, monomial_field(1, 0, 2, 3 + 3j), t, z2)
    assert r3f == pytest.approx(3 * rf, abs=1e-16)


def test_residual_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    f = VectorFieldPoly({(0, 0): 0.3 - 0.7j, (1, 0): 1.1j}, {(0, 1): 0.4 + 0.2j})
    t, z2 = 0.23, mp.mpc("0.31", "0.17")

    s = mp.sqrt(z2.real**2 + z2.imag**2)
    P = mp.e ** (-1 / s)
    Pw = P * mp.mpf("0.5") * s**-3 * mp.conj(z2)
    z1 = mp.mpc(0, t) - t * P
    g1 = mp.mpf("0.5") - mp.mpc(0, "0.5") * P
    g2 = t * Pw  # Im z1 = t
    h1 = mp.mpc("0.3", "-0.7") + mp.mpc(0, "1.1") * z1
    h2 = mp.mpc("0.4", "0.2") * z2
    oracle = mp.re(g1 * h1 + g2 * h2)

    got = tangency_residual(model, f, t, complex(z2))
    assert abs(float(oracle) - got) < 1e-15


def test_linear_diag_field_structure():
    f = linear_diag_field(1.0, 2.0)
    assert f.coeffs1 == {(1, 0): 1.0 + 0j}
    assert f.coeffs2 == {(0, 1): 2j}


def _naive_eval(coeffs, z1, z2):
    """Per-monomial reference: every power recomputed, same summation order."""
    total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    for (j, k) in sorted(coeffs):
        total = total + coeffs[(j, k)] * np.asarray(z1) ** j * np.asarray(z2) ** k
    return total


def _bits(c: complex):
    return struct.pack("<dd", c.real, c.imag)


def test_eval_matches_naive_formula_bit_for_bit():
    N = 12
    rng = np.random.default_rng(7)
    monos = [(j, d - j) for d in range(N + 1) for j in range(d + 1)]

    def dense():
        return {m: complex(*rng.normal(size=2)) for m in monos}

    f = VectorFieldPoly(dense(), dense())
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    T, Z = np.meshgrid((0.04, -0.04, 0.11, -0.11, 0.19, -0.19, 0.28, -0.28), VALIDATION_POINTS,
                       indexing="ij")
    z1, z2 = surface_point(model, T.ravel(), Z.ravel())
    h1, h2 = f.eval(z1, z2)
    assert np.array_equal(h1, _naive_eval(f.coeffs1, z1, z2))
    assert np.array_equal(h2, _naive_eval(f.coeffs2, z1, z2))
    for a, b in zip(z1[::37], z2[::37]):
        s1, s2 = f.eval(complex(a), complex(b))
        assert s1 == complex(_naive_eval(f.coeffs1, complex(a), complex(b)))
        assert s2 == complex(_naive_eval(f.coeffs2, complex(a), complex(b)))

    # Scalar calls take a plain-Python path; it must agree bit for bit,
    # sign of zero included, also at signed zeros and tiny parts and for
    # numpy complex scalars, and return a Python complex.
    parts = (0.0, -0.0, 1e-300, -1e-300, 0.7, -1.3)
    specials = [complex(x, y) for x in parts for y in parts]
    one_monomial = [VectorFieldPoly({m: complex(*rng.normal(size=2))}, {}) for m in monos]
    for g in [f, *one_monomial[::5], linear_diag_field(0.5, -2.0)]:
        for a in specials[::5] if g is f else specials:
            for b in specials[1::4]:
                for cast in (complex, np.complex128):
                    s1, s2 = g.eval(cast(a), cast(b))
                    assert type(s1) is complex and type(s2) is complex
                    assert _bits(s1) == _bits(complex(_naive_eval(g.coeffs1, a, b)))
                    assert _bits(s2) == _bits(complex(_naive_eval(g.coeffs2, a, b)))

