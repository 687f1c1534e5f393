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
    assemble,
    default_grid,
    get_germ,
    monomial_field,
    nullspace,
    solve_model,
    tangency_residual,
    validation_grid,
    validation_residual,
)
from crlab.autsolve import field_from_vector, vector_from_field


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


def test_nullspace_requires_at_least_as_many_samples_as_unknowns():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    system = assemble(model, N=3)
    short = replace(system, matrix=system.matrix[: system.n_unknowns - 1])
    with pytest.raises(ConfigurationError):
        nullspace(short)


def test_vector_field_round_trip_through_columns():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    system = assemble(model, N=3)
    f = monomial_field(1, 1, 0, 2.0 - 1.0j) + monomial_field(2, 0, 2, 0.5j)
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


@pytest.mark.parametrize("germ", ["p1", "counterexample"])
def test_validation_residual_equals_tangency_residual(germ):
    model = ModelSpec(ONE_NONMINIMAL, get_germ(germ))
    basis = nullspace(assemble(model, N=5))
    assert basis.dimension > 0
    T, Z = validation_grid().samples()
    for f, r in zip(basis.basis, basis.validation_residuals):
        expected = float(np.max(np.abs(tangency_residual(model, f, T, Z))))
        assert r == expected
        assert validation_residual(model, f) == expected


def test_validation_residual_is_per_model_and_grid():
    # The surface frame is reused between calls; switching the model must
    # not hand back another one's frame.
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
