import json
from dataclasses import replace

import numpy as np
import pytest

from crlab import (
    ConfigurationError,
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    ParameterError,
    RIGID,
    SampleGrid,
    VectorFieldPoly,
    assemble,
    canonicalize,
    default_grid,
    get_germ,
    monomial_field,
    nullspace,
    solve_model,
    tangency_residual,
    validation_grid,
    validation_residual,
)
from crlab.autsolve import (
    CERT_TOL,
    DICTIONARY,
    LABEL_TOL,
    SPAN_TOL,
    field_from_vector,
    vector_from_field,
)


def test_grid_rejects_origin_in_z2():
    with pytest.raises(ParameterError):
        SampleGrid(t_values=(0.0, 0.1), z2_values=(0.0j, 0.3))


def test_default_and_validation_grids_are_disjoint():
    g, v = default_grid(), validation_grid()
    assert set(g.t_values).isdisjoint(set(v.t_values))
    assert set(g.z2_values).isdisjoint(set(v.z2_values))
    assert g.n >= 1500


def test_assemble_shapes_and_normalization():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    sys5 = assemble(model, N=5)
    # degrees 0..5 minus the constant monomial, re+im, two components
    assert sys5.n_unknowns == 2 * 2 * (21 - 1)
    assert sys5.matrix.shape == (default_grid().n, sys5.n_unknowns)
    row_max = np.max(np.abs(sys5.matrix), axis=1)
    assert np.allclose(row_max[row_max > 0], 1.0)


def test_assemble_requires_oversampling():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    tiny = SampleGrid(t_values=(0.0, 0.1), z2_values=(0.3, 0.4))
    with pytest.raises(ConfigurationError):
        assemble(model, N=5, grid=tiny)


@pytest.mark.parametrize("germ, a", [("zero", 1.0), ("p1", 20.0)])
@pytest.mark.parametrize("family", [ONE_NONMINIMAL, M_NONMINIMAL, RIGID])
def test_assemble_rejects_p_zero_at_every_sample(germ, a, family):
    # P = 0 is the Levi-flat model: exp(-1/|z|^20) underflows to 0 at every
    # sampled z2, and the solver used to report a confident dimension 45.
    model = ModelSpec(family, get_germ(germ, a=a), m=2 if family == M_NONMINIMAL else 1)
    with pytest.raises(ParameterError, match="not identically zero"):
        assemble(model, N=5)
    with pytest.raises(ParameterError, match="not identically zero"):
        solve_model(model)


def test_nullspace_requires_at_least_as_many_samples_as_unknowns():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    system = assemble(model, N=3)
    short = replace(system, matrix=system.matrix[: system.n_unknowns - 1])
    with pytest.raises(ConfigurationError):
        nullspace(short)


def test_vector_field_round_trip_through_columns():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    system = assemble(model, N=3)
    f = VectorFieldPoly({(1, 0): 2.0 - 1.0j}, {(0, 2): 0.5j})
    x = vector_from_field(f, system.columns)
    assert x is not None
    g = field_from_vector(x, system.columns)
    assert g.coeffs1 == f.coeffs1
    assert g.coeffs2 == f.coeffs2
    # a monomial beyond the jet order has no column
    assert vector_from_field(monomial_field(1, 9, 0, 1.0), system.columns) is None


def test_nullspace_finds_two_dimensional_algebra_for_p1():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    basis = nullspace(assemble(model, N=5))
    assert basis.dimension == 2
    assert basis.gap >= 1e3
    assert basis.status == "confident"
    assert all(r < 1e-12 for r in basis.validation_residuals)


def test_nontangent_direction_has_large_residual():
    # i z1 dz1 solves the homogeneous-looking equation only at P = 0;
    # the certificate must reject it.
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    r = validation_residual(model, monomial_field(1, 1, 0, 1j))
    assert r > 1e-3


def test_solve_model_labels_p1():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    basis, report = solve_model(model)
    assert basis.labels == ["z1 dz1", "i z2 dz2"]
    assert report["dimension"] == 2
    assert report["labels"] == basis.labels
    assert all(p < 1e-6 for p in report["projection_residuals"])


def test_solve_model_m_family():
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    basis, _ = solve_model(model)
    assert basis.labels == ["i z2 dz2"]
    assert basis.confident


def test_origin_constraint_cuts_translation():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
    free, _ = solve_model(model, vanish_at_origin=False)
    fixed, _ = solve_model(model, vanish_at_origin=True)
    assert free.dimension == 2 and "i dz2" in free.labels
    assert fixed.dimension == 1 and fixed.labels == ["z1 dz1"]


def test_report_is_json_serializable_and_deterministic():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    _, r1 = solve_model(model)
    _, r2 = solve_model(model)
    s1 = json.dumps(r1, sort_keys=True)
    s2 = json.dumps(r2, sort_keys=True)
    assert s1 == s2


def test_tau_validation():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    system = assemble(model, N=2)
    with pytest.raises(ParameterError):
        nullspace(system, tau=0.0)
    # Below max(m, n) * eps no singular value can be told from zero.
    floor = max(system.matrix.shape) * np.finfo(float).eps
    with pytest.raises(ParameterError):
        nullspace(system, tau=1e-300)
    with pytest.raises(ParameterError):
        nullspace(system, tau=floor / 2)
    nullspace(system, tau=floor)
    with pytest.raises(ParameterError):
        assemble(model, N=0)


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("vanish, dim", [(True, 5), (False, 8)])
def test_hyperquadric_algebra_dimensions(N, vanish, dim):
    # Re z1 + |z2|^2 = 0: aut = su(2,1) has dimension 8, the isotropy
    # algebra aut_0 dimension 5 (Chern-Moser).
    model = ModelSpec(RIGID, get_germ("control"))
    basis, _ = solve_model(model, N=N, vanish_at_origin=vanish)
    assert basis.dimension == dim
    assert basis.status == "confident"


@pytest.mark.parametrize(
    "germ, family, N",
    [("p1", ONE_NONMINIMAL, n) for n in range(5, 13)]
    + [("control", RIGID, n) for n in range(2, 9)],
)
def test_nullspace_matches_direct_thin_svd(germ, family, N):
    # nullspace takes the SVD of the QR factor R; it must give the same bits
    # as the thin SVD of the whole matrix.
    system = assemble(ModelSpec(family, get_germ(germ)), N=N)
    _, s, vt = np.linalg.svd(system.matrix, full_matrices=False)
    basis = nullspace(system)
    assert np.array_equal(basis.singular_values, s)
    null = s <= 1e-8 * s[0]
    assert basis.basis == [field_from_vector(v, system.columns) for v in vt[null]]


def per_vector_report(model, N):
    """The parts of solve_model's report that nullspace and canonicalize
    make, built one null vector at a time: a field per SVD row, its
    tangency_residual on the validation grid, and a coefficient vector per
    field over the union of the fields' monomials."""
    system = assemble(model, N)
    _, s, vt = np.linalg.svd(np.linalg.qr(system.matrix, mode="r"), full_matrices=False)
    null = s <= 1e-8 * s[0]
    basis = [field_from_vector(v, system.columns) for v in vt[null]]
    T, Z = validation_grid().samples()
    resids = [float(np.max(np.abs(tangency_residual(model, f, T, Z)))) for f in basis]
    tiny = np.finfo(float).tiny
    gap = float(s[~null].min() / max(s[null].max(), tiny)) if 0 < null.sum() < len(s) else None
    certified = all(r <= CERT_TOL * max(f.max_coefficient(), tiny) for r, f in zip(resids, basis))
    if gap is not None and gap < 10:
        status = "ambiguous"
    else:
        status = "confident" if (gap is None or gap >= 1e3) and certified else "unconfirmed"

    dim, matched = len(basis), []
    fields_ = basis + [f for _, f in DICTIONARY]
    keys = sorted({(c, j, k) for f in fields_ for c, cs in ((1, f.coeffs1), (2, f.coeffs2))
                   for (j, k), v in cs.items() if v != 0})
    if dim:
        B = np.array([vector_from_field(f, keys) for f in basis])
        Bo = np.linalg.qr((B / np.linalg.norm(B, axis=1)[:, None]).T)[0].T[:dim]
        for label, f in DICTIONARY:
            v = vector_from_field(f, keys)
            r = float(np.linalg.norm(v - Bo.T @ (Bo @ v)))
            if r <= LABEL_TOL:
                matched.append((label, f, np.flatnonzero(v)[0], r))
    labels = [m[0] for m in matched][:dim]
    labels += ["unidentified"] * (dim - len(labels))
    if dim and len(matched) == dim:
        outside = np.ones(2 * len(keys), dtype=bool)
        outside[[m[2] for m in matched]] = False
        if np.linalg.norm(Bo[:, outside], axis=1).max() <= SPAN_TOL:
            basis = [m[1] for m in matched]
    return {
        "singular_values": s.tolist(),
        "dimension": dim,
        "gap": gap,
        "status": status,
        "basis": [f.to_records() for f in basis],
        "labels": labels,
        "validation_residuals": resids,
        "projection_residuals": [m[3] for m in matched],
    }


ORACLE_MODELS = {
    "p1": ModelSpec(ONE_NONMINIMAL, get_germ("p1")),
    "counterexample": ModelSpec(ONE_NONMINIMAL, get_germ("counterexample")),
    "p1-m2": ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2),
    "hyperquadric": ModelSpec(RIGID, get_germ("control")),
}


@pytest.mark.parametrize(
    "name, N",
    [pytest.param(name, N, id=name if N == 5 else f"{name}-N{N}")
     for N in (5, 12) for name in ORACLE_MODELS],
)
def test_validation_residual_equals_tangency_residual(name, N):
    # nullspace certifies and converts its whole null block at once, and
    # canonicalize indexes that block; the report must equal the one built
    # a vector at a time, bit for bit.
    model = ORACLE_MODELS[name]
    basis = nullspace(assemble(model, N=N))
    assert basis.dimension > 0
    T, Z = validation_grid().samples()
    for f, r in zip(basis.basis, basis.validation_residuals):
        expected = float(np.max(np.abs(tangency_residual(model, f, T, Z))))
        assert r == expected
        assert validation_residual(model, f) == expected
    _, report = solve_model(model, N=N)
    reference = per_vector_report(model, N)
    assert json.dumps({k: report[k] for k in reference}) == json.dumps(reference)


def test_validation_residual_is_per_model_and_grid():
    # Alternating models must each get their own surface frame.
    f = monomial_field(1, 1, 0, 1j)
    g = get_germ("p1")
    a = ModelSpec(ONE_NONMINIMAL, g)
    b = ModelSpec(M_NONMINIMAL, g, m=2)
    T, Z = validation_grid().samples()

    def direct(model):
        return float(np.max(np.abs(tangency_residual(model, f, T, Z))))

    calls = [a, b, a, b, a]
    got = [validation_residual(model, f) for model in calls]
    assert got == [direct(model) for model in calls]
    assert len(set(got)) == 2


@pytest.mark.parametrize(
    "family, a, m",
    [(M_NONMINIMAL, 1.0, m) for m in (14, 16, 20, 50, 400)]
    + [(ONE_NONMINIMAL, 8.0, 1), (ONE_NONMINIMAL, 10.0, 1), (RIGID, 8.0, 1)],
)
def test_p_term_at_most_tau_at_every_sample_is_rejected(family, a, m):
    # |t|^m P <= 0.3^16 * 0.16 = 7e-10 at m = 16 (and exp(-1/|z|^8) <= 2e-52
    # at a = 8): the samples see the Levi-flat model, and the solver used to
    # report a confident dimension 45.
    model = ModelSpec(family, get_germ("p1", a=a), m=m)
    with pytest.raises(ParameterError, match="not identically zero.*not above 1e-08"):
        solve_model(model)


def test_p_term_rule_follows_tau():
    # m = 16: max |t^16 P| over the default grid is 7.0e-10.
    system = assemble(ModelSpec(M_NONMINIMAL, get_germ("p1"), m=16), N=5)
    with pytest.raises(ParameterError, match="not above 1e-09"):
        nullspace(system, tau=1e-9)
    assert nullspace(system, tau=1e-10).status == "ambiguous"


@pytest.mark.parametrize("m", range(2, 14))
def test_m_nonminimal_is_confident_only_where_right(m):
    # Dimension 1 (i z2 dz2) for every m; from m = 4 the default grid cannot
    # separate it, and the solver must say so rather than be confident.
    basis, _ = solve_model(ModelSpec(M_NONMINIMAL, get_germ("p1"), m=m))
    assert basis.confident == (m <= 3)
    if m <= 3:
        assert basis.labels == ["i z2 dz2"]


@pytest.mark.parametrize("germ, family", [("p1", ONE_NONMINIMAL), ("control", RIGID)])
def test_canonicalize_relabels_its_own_output(germ, family):
    # canonicalize reads the basis's coefficient block, which its own output
    # carries too.  p1's labelled rows are exact unit rows, whose dictionary
    # entries project with residual 0; the hyperquadric keeps its raw rows.
    labeled, report = solve_model(ModelSpec(family, get_germ(germ)))
    again = canonicalize(labeled)
    assert again.labels == report["labels"]
    assert [f.to_records() for f in again.basis] == report["basis"]
    if germ == "p1":
        assert again.labels == ["z1 dz1", "i z2 dz2"]
        assert again.projection_residuals == [0.0, 0.0]
    else:
        assert again.projection_residuals == report["projection_residuals"]


def test_replace_keeps_the_coefficient_block():
    basis = nullspace(assemble(ModelSpec(ONE_NONMINIMAL, get_germ("p1")), N=5))
    copy = replace(basis)
    assert copy.coefficients is basis.coefficients
    assert copy.columns == basis.columns
    assert copy.basis == basis.basis
    assert canonicalize(copy).labels == ["z1 dz1", "i z2 dz2"]
