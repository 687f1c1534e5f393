import numpy as np
import pytest

from crlab import (
    CATALOG_IDS,
    DomainError,
    ParameterError,
    get_germ,
    make_bump,
    wirtinger_fd,
)

GERM_IDS = ("p1", "p2", "p3", "control", "counterexample")


def test_catalog_values_match_closed_forms():
    z = 0.4 + 0.2j
    s = abs(z)
    assert get_germ("p1")(z) == pytest.approx(np.exp(-1.0 / s), rel=1e-15)
    assert get_germ("p2")(z) == pytest.approx(np.exp(-1.0 / s + z.real), rel=1e-15)
    assert get_germ("p3")(z) == pytest.approx(np.exp(-1.0 / abs(z.real)), rel=1e-15)
    assert get_germ("control")(z) == pytest.approx(s**2, rel=1e-15)
    assert get_germ("zero")(z) == 0.0


@pytest.mark.parametrize("gid", CATALOG_IDS)
def test_catalog_declares_the_rotation_invariant_germs_radial(gid):
    # P(e^{i theta} z) = P(z) for p1 and control, whose dP/dz turns with
    # e^{-i theta}; the other germs are declared not radial.
    g = get_germ(gid)
    assert g.radial == (gid in ("p1", "control"))
    z = np.array([0.31 + 0.12j, -0.2 + 0.35j, 0.05 - 0.44j])
    turn = np.exp(0.7j)
    if g.radial:
        assert np.allclose(g(z * turn), g(z), rtol=1e-13, atol=0)
        assert np.allclose(g.wirt(z * turn), g.wirt(z) / turn, rtol=1e-13, atol=0)
    elif gid in ("p2", "p3"):
        assert not np.allclose(g(z * turn), g(z), rtol=1e-3, atol=0)


def test_flat_germs_exactly_zero_at_origin():
    for gid in ("p1", "p2", "p3", "zero"):
        g = get_germ(gid)
        assert g(0.0) == 0.0
        assert g.wirt(0.0) == 0.0


def test_flat_germs_underflow_to_exact_zero_near_origin():
    # exp(-1/|z|) underflows well before |z| = 1e-3
    g = get_germ("p1")
    assert g(1e-4 + 0j) == 0.0
    assert g.wirt(1e-4 + 0j) == 0.0


@pytest.mark.parametrize("gid", GERM_IDS)
@pytest.mark.parametrize("z", [0.3 + 0.1j, -0.25 + 0.4j, 0.55 - 0.02j, 0.45j])
def test_analytic_wirtinger_matches_finite_differences(gid, z):
    g = get_germ(gid)
    if gid == "p3" and abs(z.real) < 0.05:
        pytest.skip("p3 is flat on the imaginary axis; fd stencil underflows")
    fd = wirtinger_fd(g, z)
    exact = g.wirt(z)
    scale = max(abs(exact), abs(fd), 1e-30)
    assert abs(exact - fd) / scale < 5e-6


def test_p3_depends_only_on_real_part():
    g = get_germ("p3")
    assert g(0.3 + 0.1j) == g(0.3 - 0.44j) == g(0.3)
    assert g.wirt(0.2 + 0.3j) == g.wirt(0.2)
    assert g.wirt(0.2 + 0.3j).imag == 0.0


def test_p1_rotational_symmetry_exact():
    g = get_germ("p1")
    vals = g(0.37 * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False)))
    assert np.ptp(vals) < 1e-15  # |z| itself carries ~1 ulp of angle noise


def test_exponent_parameter_changes_flatness():
    g1 = get_germ("p1", a=1.0)
    g2 = get_germ("p1", a=2.0)
    z = 0.3
    assert g1(z) == pytest.approx(np.exp(-1 / 0.3), rel=1e-15)
    assert g2(z) == pytest.approx(np.exp(-1 / 0.09), rel=1e-15)
    assert g2(z) < g1(z)


def test_vectorized_evaluation_matches_scalar():
    g = get_germ("p2")
    zs = np.array([0.3 + 0.1j, -0.2 + 0.2j, 0.5j, 0.0])
    vec = g(zs)
    assert vec.shape == zs.shape
    for i, z in enumerate(zs):
        assert vec[i] == g(complex(z))


def test_bump_plateaus_are_exact():
    chi = make_bump(0.1)
    assert chi(0.05 + 0.02j) == 1.0
    assert chi(0.099) == 1.0
    assert chi(0.25) == 0.0
    assert chi(0.0) == 1.0
    mid = chi(0.15)
    assert 0.0 < mid < 1.0
    # exact zeros of the derivative on both plateaus
    assert chi.wirt(0.05 + 0.0j) == 0.0
    assert chi.wirt(0.3 + 0.0j) == 0.0


def test_bump_wirtinger_matches_finite_differences():
    chi = make_bump(0.1)
    for z in (0.13 + 0.05j, 0.16 - 0.02j):
        h = 1e-6
        dx = (chi(z + h) - chi(z - h)) / (2 * h)
        dy = (chi(z + 1j * h) - chi(z - 1j * h)) / (2 * h)
        fd = 0.5 * (dx - 1j * dy)
        assert abs(chi.wirt(z) - fd) < 1e-7


@pytest.mark.parametrize("gid", CATALOG_IDS)
def test_domain_check(gid):
    g = get_germ(gid)
    with pytest.raises(DomainError):
        g.check_inside(g.radius + 0.05)
    for z in (complex("nan"), np.array([0.1, complex(0.2, float("nan"))])):
        with pytest.raises(DomainError):
            g.check_inside(z)
    g.check_inside(g.radius)  # boundary allowed
    g(g.radius)
    g.wirt(g.radius)
    # Every evaluation checks the disk: just past its edge and NaN, scalar or
    # inside an array, for P and for dP/dz alike.
    for z in (g.radius * (1 + 1e-9), complex("nan")):
        for points in (z, np.array([0.1, z])):
            for evaluate in (g, g.wirt):
                with pytest.raises(DomainError, match="outside the domain disk"):
                    evaluate(points)
    with pytest.raises(DomainError):
        wirtinger_fd(g, complex("nan"))


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        get_germ("p1", a=0.0)
    with pytest.raises(ParameterError):
        get_germ("nope")
    with pytest.raises(ParameterError):
        make_bump(-0.1)
    # exp(-2/r) underflows: the cut-off would be 0/0 at |z| = 1.5 r.
    for r in (0.002, 0.0026840837970027224):
        with pytest.raises(ParameterError, match="0.0026841"):
            make_bump(r)
    assert make_bump(0.002684083797002723)(1.5 * 0.002684083797002723) == 0.5


@pytest.mark.parametrize("a", [float("nan"), float("inf"), 0.0, -1.0])
def test_catalog_germ_rejects_bad_exponent(a):
    with pytest.raises(ParameterError):
        get_germ("p1", a=a)


@pytest.mark.parametrize("r", [0.0027, 0.005, 0.0053])
def test_bump_derivatives_are_finite_for_small_inner_radii(r):
    # (a + b)**2 underflows to 0 on most of (r, 2r) for these radii.
    chi = make_bump(r)
    s = np.linspace(r, 2 * r, 10_001)
    d = chi.radial_derivative(s)
    assert np.all(np.isfinite(d))
    assert np.all(d <= 0.0)
    assert np.all(np.isfinite(chi.wirt(s.astype(complex))))
