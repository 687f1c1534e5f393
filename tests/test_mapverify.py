import numpy as np
import pytest

from crlab import (
    DegenerateMapError,
    DomainError,
    ModelSpec,
    Negate,
    ONE_NONMINIMAL,
    ParameterError,
    Rotate,
    Scale,
    TranslateIm,
    check_modulus_derivative,
    check_reparam,
    default_grid,
    get_germ,
    invariance_residual,
)
from crlab.mapverify import verdict_report

P1 = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
P2 = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
P3 = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))


def test_default_grid_is_the_flat_product_of_13_t_values_and_120_points():
    T, Z = default_grid()
    assert T.shape == Z.shape == (1560,)
    assert len(set(T.tolist())) == 13 and len(set(Z.tolist())) == 120
    assert np.array_equal(T.reshape(13, 120), np.repeat(T[::120, None], 120, axis=1))
    assert np.all(Z != 0)


def test_rotation_preserves_rotational_model():
    assert invariance_residual(P1, Rotate(0.7), default_grid())[0] < 1e-14


def test_scale_in_z1_preserves_one_nonminimal():
    # rho(s z1, z2) = s rho(z1, z2) for real s, so the zero set is fixed
    assert invariance_residual(P1, Scale(2.0), default_grid())[0] < 1e-14
    assert invariance_residual(P2, Scale(-0.5), default_grid())[0] < 1e-14


def test_imaginary_translation_preserves_tubular_model():
    assert invariance_residual(P3, TranslateIm(0.1), default_grid())[0] < 1e-14


def test_rotation_breaks_non_rotational_model():
    assert invariance_residual(P2, Rotate(np.pi / 2), default_grid())[0] > 1e-3


def test_negation_preserves_even_models():
    assert invariance_residual(P1, Negate(), default_grid())[0] < 1e-14
    assert invariance_residual(P3, Negate(), default_grid())[0] < 1e-14
    assert invariance_residual(P2, Negate(), default_grid())[0] > 1e-3


class _NanImage:
    def apply(self, z1, z2):
        return z1, np.full_like(z2, np.nan)


def test_image_outside_domain_raises():
    with pytest.raises(DomainError):
        invariance_residual(P1, TranslateIm(0.3), default_grid())
    with pytest.raises(DomainError):
        invariance_residual(P1, _NanImage(), default_grid())


def test_modulus_derivative_checks():
    assert check_modulus_derivative((0.0, np.exp(0.9j))) == 0.0
    assert check_modulus_derivative((0.0, 1.1)) == pytest.approx(0.1)
    with pytest.raises(DegenerateMapError):
        check_modulus_derivative((0.0, 0.0, 1.0))
    with pytest.raises(DegenerateMapError):
        check_modulus_derivative((0.3, 1.0))


def test_reparam_rotation_on_rotational_germ():
    sample = [0.05 + 0.3 * np.exp(2j * np.pi * q / 40) for q in range(40)]
    sup, delta = check_reparam(get_germ("p1"), (0.0, np.exp(0.7j)), sample)
    assert sup < 1e-14
    assert abs(delta - 1.0) < 1e-8


def test_reparam_detects_distortion():
    sample = [0.05 + 0.3 * np.exp(2j * np.pi * q / 40) for q in range(40)]
    sup, _ = check_reparam(get_germ("p1"), (0.0, 0.5), sample)
    assert sup > 1e-3


def test_verdict_report_contents():
    rep = verdict_report(P1, Rotate(0.5), default_grid())
    assert rep["verdict"] == "pass"
    assert rep["residual"] < 1e-14
    assert rep["modulus_defect"] == 0.0
    assert abs(rep["delta_hat"] - 1.0) < 1e-8
    bad = verdict_report(P2, Rotate(np.pi / 2), default_grid())
    assert bad["verdict"] == "fail"


@pytest.mark.parametrize("cls", [Scale, Rotate, TranslateIm])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_maps_reject_non_finite_parameters(cls, value):
    with pytest.raises(ParameterError):
        cls(value)
