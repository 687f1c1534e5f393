import numpy as np
import pytest

from crlab import (
    Compose,
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
    check_symmetries,
    default_grid,
    get_germ,
    invariance_residual,
    simplify,
)
from crlab.mapverify import GeneralPair, eval_poly, verdict_report

P1 = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
P2 = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
P3 = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))


def test_rotation_preserves_rotational_model():
    assert invariance_residual(P1, Rotate(0.7), default_grid()) < 1e-14


def test_scale_in_z1_preserves_one_nonminimal():
    # rho(s z1, z2) = s rho(z1, z2) for real s, so the zero set is fixed
    assert invariance_residual(P1, Scale(2.0), default_grid()) < 1e-14
    assert invariance_residual(P2, Scale(-0.5), default_grid()) < 1e-14


def test_imaginary_translation_preserves_tubular_model():
    assert invariance_residual(P3, TranslateIm(0.1), default_grid()) < 1e-14


def test_rotation_breaks_non_rotational_model():
    assert invariance_residual(P2, Rotate(np.pi / 2), default_grid()) > 1e-3


def test_negation_preserves_even_models():
    assert invariance_residual(P1, Negate(), default_grid()) < 1e-14
    assert invariance_residual(P3, Negate(), default_grid()) < 1e-14
    assert invariance_residual(P2, Negate(), default_grid()) > 1e-3


def test_image_outside_domain_raises():
    with pytest.raises(DomainError):
        invariance_residual(P1, TranslateIm(0.3), default_grid())


def test_compose_order_and_simplify():
    m = Compose((Rotate(0.3), Rotate(0.4), Scale(2.0), Scale(0.5)))
    s = simplify(m)
    assert isinstance(s, Compose)
    kinds = [type(p).__name__ for p in s.maps]
    assert kinds == ["Rotate", "Scale"]
    assert s.maps[0].theta == pytest.approx(0.7)
    assert s.maps[1].s == 1.0
    z1, z2 = m.apply(0.1 + 0.2j, 0.3)
    w1, w2 = s.apply(0.1 + 0.2j, 0.3)
    assert abs(z1 - w1) < 1e-16 and abs(z2 - w2) < 1e-16


def test_simplify_collapses_to_single_map():
    s = simplify(Compose((Rotate(0.1), Rotate(0.2))))
    assert isinstance(s, Rotate)
    assert s.theta == pytest.approx(0.3)


def test_general_pair_validation():
    with pytest.raises(DegenerateMapError):
        GeneralPair(0.0, (0.0, 1.0))
    with pytest.raises(DegenerateMapError):
        GeneralPair(1.0, (0.5, 1.0))
    gp = GeneralPair(2.0, (0.0, 1.0, 0.3))
    z1, z2 = gp.apply(1.0, 0.2)
    assert z1 == 2.0
    assert z2 == pytest.approx(eval_poly((0.0, 1.0, 0.3), 0.2))


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


def test_symmetry_detectors():
    rot1, par1 = check_symmetries(get_germ("p1"))
    assert rot1 < 1e-15 and par1 == 0.0
    rot2, par2 = check_symmetries(get_germ("p2"))
    assert rot2 > 1e-3 and par2 > 1e-3
    rot3, par3 = check_symmetries(get_germ("p3"))
    assert rot3 > 1e-3 and par3 == 0.0


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
