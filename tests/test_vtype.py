import numpy as np
import pytest

from crlab import (
    ModelSpec,
    ONE_NONMINIMAL,
    ParameterError,
    get_germ,
    p_infinity_candidates,
    scan_s_infinity,
    surface_point,
    vanishing_order,
)
from crlab.germs import SmoothGerm
from crlab.vtype import write_scan_csv


def power_germ(k: int) -> SmoothGerm:
    """|z|^(2k): smooth, vanishing to order exactly 2k at the origin."""
    return SmoothGerm(
        id=f"pow{2 * k}",
        radius=0.75,
        eval_fn=lambda z, k=k: np.abs(z) ** (2 * k),
        wirt_fn=lambda z, k=k: k * np.abs(z) ** (2 * (k - 1)) * np.conj(z),
        rotational=True,
    )


@pytest.mark.parametrize("gid", ["p1", "p2", "p3"])
def test_flat_catalog_germs_are_infinite_at_origin(gid):
    est = vanishing_order(get_germ(gid), 0.0)
    assert est.infinite
    assert est.order is None


def test_zero_germ_flagged_by_underflow():
    est = vanishing_order(get_germ("zero"), 0.2)
    assert est.infinite
    assert est.note == "by-underflow"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_germs_recover_even_orders(k):
    est = vanishing_order(power_germ(k), 0.0)
    assert est.finite
    assert est.order == 2 * k
    assert est.r2 >= 0.999


def test_p1_has_order_one_off_origin():
    est = vanishing_order(get_germ("p1"), 0.5)
    assert est.finite
    assert est.order == 1


def test_p3_infinite_exactly_on_imaginary_axis():
    g = get_germ("p3")
    grid = [0.3j, -0.3j, 0.3 + 0j, 0.2 + 0.2j]
    flagged = scan_s_infinity(g, grid)
    assert 0.3j in flagged and -0.3j in flagged
    assert (0.3 + 0j) not in flagged and (0.2 + 0.2j) not in flagged


def test_p_infinity_candidates_are_surface_points():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    pts = p_infinity_candidates(model, [0.3 + 0j], [0.0, 0.1])
    z1, z2 = surface_point(model, 0.1, 0.3 + 0j)
    assert (z1, z2) in pts
    assert len(pts) == 2


def test_domain_and_radii_validation():
    g = get_germ("p1")
    with pytest.raises(ParameterError):
        vanishing_order(g, 0.7)  # window exits the disk
    with pytest.raises(ParameterError):
        vanishing_order(g, 0.0, radii=[1e-3, 1e-2])


def test_scan_csv(tmp_path):
    path = tmp_path / "scan.csv"
    rows = write_scan_csv(path, get_germ("p1"), [0.0, 0.4, 0.4j])
    text = path.read_text()
    assert len(rows) == 3
    assert text.count("\n") == 4  # header + 3 rows
    assert "inf" in text


@pytest.mark.parametrize("k_max", [0, -1])
def test_vanishing_order_rejects_k_max_below_one(k_max):
    with pytest.raises(ParameterError):
        vanishing_order(get_germ("p1"), 0.3, K_max=k_max)
