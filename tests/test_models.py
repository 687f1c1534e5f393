import numpy as np
import pytest

from crlab import (
    DomainError,
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    ParameterError,
    RIGID,
    Rotate,
    get_germ,
    invariance_residual,
    rho,
    rho_gradient,
    surface_point,
)


def all_models():
    g = get_germ("p1")
    return [
        ModelSpec(ONE_NONMINIMAL, g),
        ModelSpec(M_NONMINIMAL, g, m=2),
        ModelSpec(M_NONMINIMAL, g, m=3),
        ModelSpec(RIGID, g),
    ]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.family}-m{m.m}")
def test_surface_points_lie_on_surface(model):
    t = np.linspace(-0.3, 0.3, 11)
    z2 = 0.4 * np.exp(1j * np.linspace(0, 2 * np.pi, 13, endpoint=False))
    T, Z = np.meshgrid(t, z2, indexing="ij")
    z1, z2c = surface_point(model, T.ravel(), Z.ravel())
    assert np.max(np.abs(rho(model, z1, z2c))) < 1e-16


def test_one_nonminimal_parametrization_closed_form():
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    p = m.germ(0.5)
    z1, z2 = surface_point(m, 0.2, 0.5)
    assert z1 == complex(-0.2 * p, 0.2)
    assert z2 == 0.5


def test_m_nonminimal_parametrization_closed_form():
    m = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    p = m.germ(0.5)
    z1, _ = surface_point(m, 0.2, 0.5)
    assert z1.real == 0.2
    assert z1.imag == pytest.approx(0.04 * p, rel=1e-15)


def test_rigid_parametrization_closed_form():
    m = ModelSpec(RIGID, get_germ("p1"))
    p = m.germ(0.5)
    z1, _ = surface_point(m, 0.2, 0.5)
    assert z1 == complex(-p, 0.2)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.family}-m{m.m}")
def test_gradient_matches_finite_differences_of_rho(model):
    z1, z2 = surface_point(model, 0.17, 0.4 + 0.2j)
    z1 = complex(z1) + 0.01 + 0.005j  # move slightly off-surface: rho is ambient
    g1, g2 = rho_gradient(model, z1, z2)
    h = 1e-6

    def wirt_fd(f, z):
        dx = (f(z + h) - f(z - h)) / (2 * h)
        dy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
        return 0.5 * (dx - 1j * dy)

    fd1 = wirt_fd(lambda w: rho(model, w, z2), z1)
    fd2 = wirt_fd(lambda w: rho(model, z1, w), z2)
    assert abs(complex(g1) - fd1) < 1e-8
    assert abs(complex(g2) - fd2) < 1e-8


def test_t_bound_enforced():
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p1"), t_bound=0.3)
    with pytest.raises(DomainError):
        surface_point(m, 0.31, 0.4)
    with pytest.raises(DomainError):  # not a NaN surface point
        surface_point(m, np.array([0.1, np.nan]), 0.4)
    surface_point(m, 0.3, 0.4)


def test_z2_domain_enforced():
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    with pytest.raises(DomainError):
        rho(m, 0.1j, 0.9)
    with pytest.raises(DomainError):  # not 0.0, "on the surface"
        rho(m, 0.1j, complex("nan"))


def test_m_validation():
    g = get_germ("p1")
    with pytest.raises(ParameterError):
        ModelSpec(M_NONMINIMAL, g, m=1)
    with pytest.raises(ParameterError):
        ModelSpec("unknown-family", g)
    with pytest.raises(ParameterError):
        ModelSpec(ONE_NONMINIMAL, g, t_bound=0.0)


def test_describe_round_trips_family_and_germ():
    m = ModelSpec(M_NONMINIMAL, get_germ("p2"), m=4)
    d = m.describe()
    assert d["family"] == M_NONMINIMAL
    assert d["germ"] == "p2"
    assert d["m"] == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_t_bound_and_grid_values_rejected(bad):
    with pytest.raises(ParameterError):
        ModelSpec(ONE_NONMINIMAL, get_germ("p1"), t_bound=bad)
    # A sample's t belongs to surface_point, its z2 to the germ's disk.
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    with pytest.raises(DomainError):
        invariance_residual(model, Rotate(0.5), (np.array([0.0, bad]), np.array([0.3, 0.4])))
    z2 = np.array([0.3, complex(0.4, bad)])
    with pytest.raises(DomainError):
        invariance_residual(model, Rotate(0.5), (np.array([0.0, 0.1]), z2))
