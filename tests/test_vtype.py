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


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_scans_equal_per_point_estimates(a, tmp_path):
    # The origin, and at a = 4 points where P underflows to 0 ("by-underflow").
    germ = get_germ("p1", a=a)
    grid = [0.0, 0.05, 0.2, 0.4, 0.4j]
    expected = [vanishing_order(germ, z) for z in grid]
    rows = write_scan_csv(tmp_path / "scan.csv", germ, grid)
    assert [repr(est) for est in rows] == [repr(est) for est in expected]
    assert scan_s_infinity(germ, grid) == [est.point for est in expected if est.infinite]


@pytest.mark.parametrize("k_max", [0, -1])
def test_vanishing_order_rejects_k_max_below_one(k_max):
    with pytest.raises(ParameterError):
        vanishing_order(get_germ("p1"), 0.3, K_max=k_max)


def _reference_vanishing_order(germ, z, K_max=20, radii=np.logspace(-3, -1, 10), n_angles=16):
    """The estimator with one germ call per radius: the increment loop that
    the batched evaluation in ``vanishing_order`` must reproduce exactly."""
    radii = np.asarray(sorted(radii), dtype=float)
    z = complex(z)
    offsets = np.exp(1j * (2 * np.pi * np.arange(n_angles) / n_angles))
    p0 = germ(z)
    diffs = np.empty(len(radii))
    for i, r in enumerate(radii):
        diffs[i] = np.max(np.abs(germ(z + r * offsets) - p0))
    positive = diffs > 0.0
    if positive.sum() < 2:
        return None, True, float("inf"), float("nan"), "by-underflow"
    x, y = np.log(radii[positive]), np.log(diffs[positive])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - A @ coef) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    if slope >= K_max:
        return None, True, slope, r2, "slope-exceeds-window"
    if np.all(diffs <= radii**K_max):
        return None, True, slope, r2, "sub-power-window"
    if r2 >= 0.999:
        return int(round(slope)), False, slope, r2, ""
    return None, False, slope, r2, "poor-fit"


@pytest.mark.parametrize("gid", ["p1", "p2", "p3", "counterexample", "control"])
@pytest.mark.parametrize(
    "window",
    [
        {},
        {"radii": np.logspace(-4, -1.5, 12), "n_angles": 7},
        {"radii": np.linspace(0.002, 0.05, 9)[::-1], "n_angles": 33},
        {"radii": np.logspace(-3, -1, 10), "n_angles": 1},
    ],
)
def test_vanishing_order_matches_per_radius_loop_exactly(gid, window):
    germ = get_germ(gid)
    rng = np.random.default_rng(11)
    points = [0.0, 0.3j, -0.3j, 0.3, *(0.55 * np.sqrt(rng.uniform(size=20))
                                      * np.exp(2j * np.pi * rng.uniform(size=20)))]
    if gid == "counterexample":
        from crlab.counterexample import CounterexampleParams

        points.append(CounterexampleParams().z20)
    for z in points:
        est = vanishing_order(germ, z, **window)
        order, infinite, slope, r2, note = _reference_vanishing_order(germ, z, **window)
        assert (est.order, est.infinite, est.note) == (order, infinite, note)
        assert est.slope == slope or (np.isnan(est.slope) and np.isnan(slope))
        assert est.r2 == r2 or (np.isnan(est.r2) and np.isnan(r2))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_angles": 0},
        {"n_angles": -3},
        {"n_angles": 2.5},
        {"n_angles": float("nan")},
        {"radii": [-0.01, *np.logspace(-3, -1, 9)]},
        {"radii": [0.0] * 10},
        {"radii": [float("nan"), *np.logspace(-3, -1, 9)]},
        {"radii": [float("inf"), *np.logspace(-3, -1, 9)]},
        {"K_max": float("nan")},
        {"K_max": float("inf")},
    ],
)
def test_vanishing_order_rejects_bad_window(kwargs, capfd):
    with pytest.raises(ParameterError):
        vanishing_order(get_germ("p1"), 0.3, **kwargs)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0.1, float("nan"))])
def test_vanishing_order_rejects_non_finite_point(z):
    with pytest.raises(ParameterError):
        vanishing_order(get_germ("p1"), z)
