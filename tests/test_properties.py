"""Property tests: germ evaluation on and off the domain disk, the
solver's coefficient codec, the tangency residual of one field and of a
stack of them, the exact-in-t residuals of the closed-form fields, and
flows run forward and back."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crlab import (  # noqa: E402
    CATALOG_IDS,
    M_NONMINIMAL,
    DomainError,
    ModelSpec,
    ONE_NONMINIMAL,
    RIGID,
    VectorFieldPoly,
    assemble,
    characteristic_flow,
    get_germ,
    integrate_field,
    linear_diag_field,
    solve_model,
    surface_point,
    tangency_residual,
    validation_residual,
)
from crlab.autsolve import (  # noqa: E402
    VALIDATION_POINTS,
    _column_polys,
    _validation_residuals,
)
from crlab.models import FAMILIES, surface_frame, surface_polys  # noqa: E402
from vectors import field_from_vector, vector_from_field  # noqa: E402

# Derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

GERMS = {gid: get_germ(gid) for gid in CATALOG_IDS}

# The sampled checks take every t value below at every validation point,
# t-major.
T_VALUES = (0.04, -0.04, 0.11, -0.11, 0.19, -0.19, 0.28, -0.28)
T, Z = (a.ravel() for a in np.meshgrid(T_VALUES, VALIDATION_POINTS, indexing="ij"))

# The solver's columns with and without the constant monomial.
_P1 = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
COLUMNS = (
    assemble(_P1, 5).columns,
    assemble(_P1, 5, vanish_at_origin=False).columns,
)


def polar(moduli):
    angles = st.floats(0.0, 2 * math.pi)
    return st.builds(lambda s, t: s * complex(math.cos(t), math.sin(t)), moduli, angles)


def points_inside(radius):
    # Moduli from 0 through tiny values to the edge of the disk.
    return polar(st.one_of(st.just(0.0), st.floats(0.0, radius), st.floats(1e-300, 1e-3)))


def points_outside(radius):
    return st.one_of(
        st.sampled_from([complex("nan"), complex(0.1, float("nan"))]),
        polar(st.floats(radius * (1 + 1e-9), 10 * radius)),
    )


@pytest.mark.parametrize("gid", CATALOG_IDS)
@PROPERTY
@given(data=st.data())
def test_scalar_and_array_evaluation_agree_bit_for_bit(gid, data):
    g = GERMS[gid]
    zs = data.draw(st.lists(points_inside(g.radius), min_size=1, max_size=20))
    for evaluate in (g, g.wirt):
        arr = evaluate(np.array(zs))
        for z, v in zip(zs, arr):
            assert np.asarray(evaluate(z), dtype=arr.dtype).tobytes() == v.tobytes()


@pytest.mark.parametrize("gid", CATALOG_IDS)
@PROPERTY
@given(data=st.data())
def test_points_outside_the_disk_raise(gid, data):
    g = GERMS[gid]
    z = data.draw(points_outside(g.radius))
    inside = data.draw(st.lists(points_inside(g.radius), max_size=5))
    for evaluate in (g, g.wirt):
        for points in (z, np.array([*inside, z])):
            with pytest.raises(DomainError, match="outside the domain disk"):
                evaluate(points)


nonzero = st.complex_numbers(allow_nan=False, allow_infinity=False).filter(bool)


@st.composite
def fields_on(draw, columns, values=nonzero):
    coeffs = draw(st.dictionaries(st.sampled_from(columns), values))
    c1 = {(j, k): v for (comp, j, k), v in coeffs.items() if comp == 1}
    c2 = {(j, k): v for (comp, j, k), v in coeffs.items() if comp == 2}
    return VectorFieldPoly(c1, c2)


@pytest.mark.parametrize("columns", COLUMNS, ids=("vanish-at-origin", "with-origin"))
@PROPERTY
@given(data=st.data())
def test_coefficient_vector_round_trip(columns, data):
    f = data.draw(fields_on(columns))
    assert field_from_vector(vector_from_field(f, columns), columns) == f


@st.composite
def models(draw, family):
    gid = draw(st.sampled_from(CATALOG_IDS))
    m = draw(st.sampled_from([2, 3])) if family == M_NONMINIMAL else 1
    return ModelSpec(family, GERMS[gid], m=m)


@st.composite
def coefficient_stacks(draw, n):
    """1-40 rows of n coefficient pairs (re, im) with exact 0.0 and -0.0
    entries and an all-zero row; numpy draws the entries from a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 40))
    X = rng.standard_normal((rows, 2 * n)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    zero = rng.random(X.shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    X[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    X[rng.integers(rows)] = rng.choice([0.0, -0.0], size=2 * n)
    return X


def naive_eval(coeffs, z1, z2):
    """The formula a field's values must equal: every power recomputed, terms
    added in sorted (j, k) order."""
    total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    for (j, k) in sorted(coeffs):
        total = total + coeffs[(j, k)] * z1**j * z2**k
    return total


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_stacked_residuals_equal_per_field_residuals_bit_for_bit(family, data):
    # A zero coefficient is left out of a field but evaluated in a stack.
    model = data.draw(models(family))
    columns = data.draw(st.sampled_from(COLUMNS))
    X = data.draw(coefficient_stacks(len(columns)))
    z1, z2, _, _ = surface_frame(model, T, Z)
    C = X.view(complex)
    z = VALIDATION_POINTS
    sups = _validation_residuals(model, C, columns, model.germ(z), model.germ.wirt(z))
    for r, x in enumerate(X):
        f = field_from_vector(x, columns)
        assert sups[r].tobytes() == np.float64(validation_residual(model, f)).tobytes()
        for h, coeffs in zip(f.eval(z1, z2), (f.coeffs1, f.coeffs2)):
            assert h.tobytes() == naive_eval(coeffs, z1, z2).tobytes()


bounded = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False).filter(bool)


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_tangency_residual_is_real_linear(family, data):
    model = data.draw(models(family))
    columns = COLUMNS[1]
    f, g = data.draw(fields_on(columns, bounded)), data.draw(fields_on(columns, bounded))
    a, b = data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(-1e3, 1e3))
    combination = field_from_vector(
        a * vector_from_field(f, columns) + b * vector_from_field(g, columns), columns
    )
    lhs = tangency_residual(model, combination, T, Z)
    rhs = a * tangency_residual(model, f, T, Z) + b * tangency_residual(model, g, T, Z)
    # Each residual sums at most 42 terms c z1^j z2^k g_i with |z1|, |z2| < 1
    # on the grid: roundoff stays below 1e-12 of sum |c| * max |g|.  Below
    # the normal range it is absolute instead, at most half the smallest
    # subnormal per operation, and a and b scale the right side's.
    _, _, g1, g2 = surface_frame(model, T, Z)
    l1 = abs(a) * sum(map(abs, [*f.coeffs1.values(), *f.coeffs2.values()])) + abs(b) * sum(
        map(abs, [*g.coeffs1.values(), *g.coeffs2.values()]))
    subnormal = (1 + abs(a) + abs(b)) * 256 * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * l1 * np.max(np.abs(g1) + np.abs(g2)) + subnormal


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_t_coefficients_sum_to_the_sampled_residual(family, data):
    # The solver's exact t-coefficients of g_comp z1^j, times c z2^k and
    # summed as a polynomial in t, are the tangency residual at every sample.
    model = data.draw(models(family))
    f = data.draw(fields_on(COLUMNS[1], bounded))
    z = VALIDATION_POINTS
    polys = _column_polys(surface_polys(model, z), {(comp, j) for comp, j, _ in COLUMNS[1]})
    total = np.zeros(len(T))
    for comp, coeffs in ((1, f.coeffs1), (2, f.coeffs2)):
        for (j, k), c in coeffs.items():
            for d, v in polys[(comp, j)].items():
                total += T**d * np.tile(np.real(c * v * z**k), len(T_VALUES))
    _, _, g1, g2 = surface_frame(model, T, Z)
    l1 = sum(map(abs, [*f.coeffs1.values(), *f.coeffs2.values()]))
    sampled = tangency_residual(model, f, T, Z)
    assert np.max(np.abs(total - sampled)) <= 1e-12 * l1 * np.max(np.abs(g1) + np.abs(g2))


# The closed-form fields of the exact-in-t checks below, each with the
# models it is tangent to.  Re z1 + |z2|^2 = 0 (the control germ, rigid)
# has the 8 fields of su(2,1) (Chern-Moser).
HYPERQUADRIC_FIELDS = (
    VectorFieldPoly({(0, 0): 1j}, {}),
    VectorFieldPoly({(0, 1): -2.0 + 0j}, {(0, 0): 1.0 + 0j}),
    VectorFieldPoly({(0, 1): 2j}, {(0, 0): 1j}),
    VectorFieldPoly({}, {(0, 1): 1j}),
    VectorFieldPoly({(1, 0): 2.0 + 0j}, {(0, 1): 1.0 + 0j}),
    VectorFieldPoly({(1, 1): 2.0 + 0j}, {(0, 2): 2.0 + 0j, (1, 0): 1.0 + 0j}),
    VectorFieldPoly({(1, 1): 2j}, {(0, 2): 2j, (1, 0): -1j}),
    VectorFieldPoly({(2, 0): 1j}, {(1, 1): 1j}),
)


# The monomials of degree <= 2, in echelon order: total degree, then
# component, then j descending.
ECHELON_2 = [(comp, j, d - j) for d in range(3) for comp in (1, 2) for j in range(d, -1, -1)]

# The reduced row echelon form of su(2,1) as the solver labels it; the last
# five rows, which vanish at the origin, are aut_0.
SU21_LABELS = [
    "i dz1",
    "dz2 - 2 z2 dz1",
    "i dz2 + 2i z2 dz1",
    "z1 dz1 + 0.5 z2 dz2",
    "z1 dz2 + 2 z1 z2 dz1 + 2 z2^2 dz2",
    "i z1 dz2 - 2i z1 z2 dz1 - 2i z2^2 dz2",
    "i z2 dz2",
    "i z1^2 dz1 + i z1 z2 dz2",
]


def su21_rref(vanish):
    """The reduced row echelon form of HYPERQUADRIC_FIELDS over their real
    coefficient entries (re, then im, of each monomial of ECHELON_2), as
    {(comp, j, k): coefficient} per row.  A pivot is an entry that raises the
    rank of the entries before it; aut_0 is the rows whose pivot is not a
    constant monomial (the first four entries)."""
    B = np.array([[x for comp, j, k in ECHELON_2
                   for v in [(f.coeffs1 if comp == 1 else f.coeffs2).get((j, k), 0j)]
                   for x in (v.real, v.imag)] for f in HYPERQUADRIC_FIELDS])
    pivots = []
    for c in range(B.shape[1]):
        if np.linalg.matrix_rank(B[:, pivots + [c]]) > len(pivots):
            pivots.append(c)
    R = np.linalg.solve(B[:, pivots], B)
    rows = [row for row, p in zip(R, pivots) if p >= 4 or not vanish]
    return [{key: complex(row[2 * i], row[2 * i + 1]) for i, key in enumerate(ECHELON_2)
             if row[2 * i] or row[2 * i + 1]} for row in rows]


@pytest.mark.parametrize("vanish", [False, True], ids=("aut", "aut0"))
@pytest.mark.parametrize("N", range(5, 17))
def test_hyperquadric_basis_is_the_rref_of_su21(N, vanish):
    # The reported rows are su(2,1)'s reduced row echelon form to 1e-10,
    # whatever N: each is labelled, and its frequency is the |f| of each of
    # its monomials (k for dz1, k - 1 for dz2).
    basis, report = solve_model(ModelSpec(RIGID, get_germ("control")), N=N,
                                vanish_at_origin=vanish)
    want = su21_rref(vanish)
    assert report["labels"] == SU21_LABELS[-len(want):]
    assert len(report["basis"]) == len(report["frequencies"]) == len(want)
    for records, f, row in zip(report["basis"], report["frequencies"], want):
        got = {(r["component"], r["j"], r["k"]): complex(r["re"], r["im"]) for r in records}
        assert max(abs(got.get(key, 0) - row.get(key, 0)) for key in {*got, *row}) <= 1e-10
        assert {abs(k if comp == 1 else k - 1) for comp, _, k in got} == {f}


def assert_exact_residual_vanishes(model, f, N):
    """f's residual on the solver's system at jet order N, and its
    validation residual, are roundoff: every t-coefficient of the tangency
    residual vanishes."""
    system = assemble(model, N, vanish_at_origin=False)
    x = vector_from_field(f, system.columns) / system.scale
    for b in system.blocks:
        A = system.matrix[b.rows, : len(b.unknowns)]  # rows of max |entry| 1
        assert np.max(np.abs(A @ x[b.unknowns])) <= 16 * EPS * np.abs(x).sum()
    size = sum(map(abs, [*f.coeffs1.values(), *f.coeffs2.values()]))
    assert validation_residual(model, f) <= 16 * EPS * size


EPS = np.finfo(float).eps
jet_orders = st.integers(2, 16)
flatness = st.floats(0.5, 3.0)


@PROPERTY
@given(gid=st.sampled_from(["p1", "p2", "p3", "control", "counterexample"]), a=flatness,
       N=jet_orders)
def test_z1_dz1_is_exactly_tangent_on_every_one_nonminimal_model(gid, a, N):
    model = ModelSpec(ONE_NONMINIMAL, get_germ(gid, a=a))
    assert_exact_residual_vanishes(model, VectorFieldPoly({(1, 0): 1.0 + 0j}, {}), N)


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(gid=st.sampled_from(["p1", "control"]), a=flatness, m=st.sampled_from([2, 3, 7]),
       N=jet_orders)
def test_i_z2_dz2_is_exactly_tangent_on_radial_germs(family, gid, a, m, N):
    model = ModelSpec(family, get_germ(gid, a=a), m=m if family == M_NONMINIMAL else 1)
    assert_exact_residual_vanishes(model, VectorFieldPoly({}, {(0, 1): 1j}), N)


@PROPERTY
@given(i=st.integers(0, len(HYPERQUADRIC_FIELDS) - 1), N=jet_orders)
def test_hyperquadric_fields_are_exactly_tangent(i, N):
    model = ModelSpec(RIGID, get_germ("control"))
    assert_exact_residual_vanishes(model, HYPERQUADRIC_FIELDS[i], N)


tols = st.floats(-12.0, -6.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_field_flow_run_back_returns_to_its_start(family, data):
    model = data.draw(models(family))
    t = data.draw(st.floats(-model.t_bound, model.t_bound))
    z2 = data.draw(polar(st.floats(0.05, 0.6)))
    z0 = np.array(surface_point(model, t, z2))
    f = linear_diag_field(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-2.0, 2.0)))
    T, tol = data.draw(st.floats(0.1, 5.0)), data.draw(tols)
    forward = integrate_field(f, z0, (0.0, T), tol=tol, model=model)
    back = integrate_field(f, forward.final_state, (0.0, -T), tol=tol, model=model)
    assert forward.status == back.status == "ok"  # |z2| is constant
    # The error control is per step, so the return error grows with the
    # span: it stays below 0.35 tol (1 + T) on these fields.
    assert np.max(np.abs(back.final_state - z0)) <= tol * (1 + T)


@PROPERTY
@given(data=st.data())
def test_characteristic_flow_run_back_returns_to_its_start(data):
    # |b| <= 1, |z0| <= 0.4 and T <= 1 keep gamma in 0.03 < |gamma| < 0.7:
    # inside the disk and away from the origin.
    b = complex(data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(-0.8, 0.8)))
    l = data.draw(st.sampled_from([1, 2]))
    z0 = data.draw(polar(st.floats(0.05, 0.4)))
    T, tol = data.draw(st.floats(0.1, 1.0)), data.draw(tols)
    forward = characteristic_flow(b, l, None, z0, (0.0, T), tol=tol)
    back = characteristic_flow(b, l, None, forward.final_state, (0.0, -T), tol=tol)
    assert forward.status == back.status == "ok"
    assert abs(back.final_state - z0) <= tol
