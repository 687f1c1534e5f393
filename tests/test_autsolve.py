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
    VectorFieldPoly,
    assemble,
    canonicalize,
    get_germ,
    monomial_field,
    nullspace,
    solve_model,
    tangency_residual,
    validation_residual,
)
from crlab.autsolve import (
    CERT_TOL,
    SOLVER_SHELLS,
    VALIDATION_POINTS,
    _column_polys,
    _columns,
    _layout,
    _r_factor,
    _weight_blocks,
    solver_points,
)
from crlab.models import surface_polys
from vectors import field_from_vector, vector_from_field

EPS = np.finfo(float).eps


def test_grid_rejects_origin_in_z2():
    with pytest.raises(ParameterError):
        assemble(ModelSpec(ONE_NONMINIMAL, get_germ("p1")), 5, points=(0j, 0.3))


def test_validation_points_are_independent_of_the_solver_points():
    # Validation must not reread the rows the solver fitted: its shells are
    # not the solver's, so no point comes within 0.05 of one at any N, nor
    # of the real shell points the graded rows come from.
    v = VALIDATION_POINTS
    assert len(v) == 68
    assert np.min(np.abs(np.abs(v)[:, None] - np.array(SOLVER_SHELLS))) >= 0.05 - 1e-12
    graded = np.array(SOLVER_SHELLS, complex)
    for points in [graded, *(np.array(solver_points(N)) for N in range(1, 17))]:
        assert np.min(np.abs(v[:, None] - points)) >= 0.05 - 1e-12


def test_assemble_shapes_and_normalization():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    sys5 = assemble(model, N=5)
    # degrees 0..5 minus the constant monomial, re+im, two components
    assert sys5.n_unknowns == 2 * 2 * (21 - 1)
    # 5 shells of 2N + 8 angles; one block per t-degree d = 0..6 (weight
    # d - 1), holding component 1 with j = d and component 2 with j = d - 1.
    n_z2 = len(solver_points(5))
    assert sys5.points == solver_points(5) and n_z2 == 5 * 18
    assert [b.degrees for b in sys5.blocks] == [(d,) for d in range(7)]
    for b in sys5.blocks:
        d = b.degrees[0]
        assert {sys5.columns[i // 2][:2] for i in b.unknowns} <= {(1, d), (2, d - 1)}
        assert b.rows.stop - b.rows.start == n_z2 >= 2 * len(b.unknowns)
    unknowns = np.concatenate([b.unknowns for b in sys5.blocks])
    assert sorted(unknowns) == list(range(sys5.n_unknowns))
    width = max(len(b.unknowns) for b in sys5.blocks)
    assert sys5.matrix.shape == (sys5.n_samples, width) == (7 * n_z2, width)
    assert sys5.describe() == {"n_t": 7, "n_z2": n_z2, "n": 7 * n_z2}
    row_max = np.max(np.abs(sys5.matrix), axis=1)
    assert np.allclose(row_max[row_max > 0], 1.0)
    # Column (j, k) is scaled by 1 / max|z2|^k, undone by ``scale``.
    assert np.allclose(sys5.scale, [0.55 ** -k for _, _, k in sys5.columns for _ in "ri"])


CLASSES = [(ONE_NONMINIMAL, 1, 7), (RIGID, 1, 1), (M_NONMINIMAL, 2, 1), (M_NONMINIMAL, 3, 2),
           (M_NONMINIMAL, 4, 3), (M_NONMINIMAL, 30, 7)]


def frequency(column):
    """|f| of column (comp, j, k): its angular frequency on a radial model."""
    comp, _, k = column
    return abs(k if comp == 1 else k - 1)


def by_class(system):
    """The system's blocks, grouped by the t-degree class of their columns."""
    supports = surface_polys(system.model, np.empty(0, complex))
    polys = _column_polys(supports, {c[:2] for c in system.columns})
    classes = _weight_blocks(polys, system.columns)
    owner = {i: n for n, (_, cols) in enumerate(classes) for i in cols}
    grouped = [[] for _ in classes]
    for b in system.blocks:
        grouped[owner[b.unknowns[0] // 2]].append(b)
    return [(degrees, cols, blocks) for (degrees, cols), blocks in zip(classes, grouped)]


@pytest.mark.parametrize(
    "family, m, n_classes, germ, graded",
    # p1 at the solver's points passed explicitly: the sigma layout, as the
    # non-radial p2 and p3 give it.  At the default points the radial p1
    # and control are graded.
    [pytest.param(*case, "p1", False, id="-".join(map(str, case))) for case in CLASSES]
    + [pytest.param(*case, germ, True, id=f"graded-{germ}-" + "-".join(map(str, case)))
       for case in CLASSES if case[0] != ONE_NONMINIMAL for germ in ("p1", "control")],
)
def test_blocks_are_the_t_degree_classes(family, m, n_classes, germ, graded):
    # m-nonminimal: z1^j reaches t-degrees j mod (m - 1) only, so a block is
    # a class of t-degrees mod (m - 1); at N = 5 classes 0..6 are occupied.
    # Rigid and even m split each class into its sigma-even and sigma-odd
    # halves, which hold one entry of each of the class's columns.
    halves = 2 if family == RIGID or (family == M_NONMINIMAL and m % 2 == 0) else 1
    model = ModelSpec(family, get_germ(germ), m=m)
    if not graded:
        system = assemble(model, N=5, points=solver_points(5))
        assert not system.graded
        assert len(system.blocks) == n_classes * halves
        for c in range(n_classes):
            pair = system.blocks[halves * c : halves * (c + 1)]
            assert len({b.degrees for b in pair}) == 1
            if family == M_NONMINIMAL and m > 2:
                assert len({d % (m - 1) for d in pair[0].degrees}) == 1
            unknowns = np.concatenate([b.unknowns for b in pair])
            assert sorted(unknowns) == sorted({2 * (u // 2) + e for u in unknowns for e in (0, 1)})
    else:
        # Each class splits into one block per |f| of its columns, in
        # increasing |f|; an f >= 1 block into its sigma halves.
        system = assemble(model, N=5)
        assert system.graded
        classes = by_class(system)
        assert len(classes) == n_classes
        for degrees, cols, blocks in classes:
            want = sorted({frequency(system.columns[i]) for i in cols})
            assert [b.frequency for b in blocks] == [
                f for f in want for _ in range(1 if f == 0 else halves)]
            for b in blocks:
                assert {frequency(system.columns[u // 2]) for u in b.unknowns} == {b.frequency}
                assert set(b.degrees) <= set(degrees)
                if family == M_NONMINIMAL and m > 2:
                    assert len({d % (m - 1) for d in b.degrees}) == 1
            unknowns = np.concatenate([b.unknowns for b in blocks])
            assert sorted(unknowns) == [2 * i + e for i in sorted(cols) for e in (0, 1)]
    # Each row is normalised over the unknowns in play at its degree, which
    # hold all of its non-zero entries.
    row_max = np.max(np.abs(system.matrix), axis=1)
    assert np.all((row_max == 1.0) | (row_max == 0.0)) and np.any(row_max == 1.0)


def test_blocks_come_from_degrees_not_values():
    # The counterexample germ is 0 at most z2 points: its blocks are p1's.
    p1 = assemble(ModelSpec(ONE_NONMINIMAL, get_germ("p1")), N=5)
    cx = assemble(ModelSpec(ONE_NONMINIMAL, get_germ("counterexample")), N=5)
    assert [b.degrees for b in cx.blocks] == [b.degrees for b in p1.blocks]
    assert all(np.array_equal(a.unknowns, b.unknowns) for a, b in zip(cx.blocks, p1.blocks))


FAMILIES = [(ONE_NONMINIMAL, 1), (RIGID, 1), (M_NONMINIMAL, 2), (M_NONMINIMAL, 3)]


def per_column_blocks(polys, columns):
    """The block rule applied one column at a time, as it was before pairs."""
    blocks = []
    for i, (comp, j, _) in enumerate(columns):
        support = set(polys[(comp, j)])
        meet = [b for b in blocks if b[0] & support]
        blocks = [b for b in blocks if not b[0] & support]
        cols = sorted(sum((b[1] for b in meet), [i]))
        blocks.append([support.union(*(b[0] for b in meet)), cols])
    return sorted((sorted(degrees), cols) for degrees, cols in blocks)


@pytest.mark.parametrize("family, m", FAMILIES)
def test_blocks_join_pairs_as_the_per_column_rule_joins_columns(family, m):
    model = ModelSpec(family, get_germ("p1"), m=m)
    for N in range(1, 17):
        for origin in (False, True):
            columns = _columns(N, not origin)
            supports = surface_polys(model, np.empty(0, complex))
            polys = _column_polys(supports, {c[:2] for c in columns})
            assert _weight_blocks(polys, columns) == per_column_blocks(polys, columns)


SPANS = [
    # m = 2: z1 = t + i t^2 P, g1 = 1/(2i) - t P and g2 = -t^2 dP/dz.
    (M_NONMINIMAL, 2, lambda comp, j: (j, 2 * j + 1) if comp == 1 else (j + 2, 2 * j + 2)),
    # rigid: z1 = -P + i t, g1 = 1/2 and g2 = dP/dz.
    (RIGID, 1, lambda comp, j: (0, j)),
]


@pytest.mark.parametrize("family, m, span, graded", [
    *(pytest.param(*case, False, id=f"{case[0]}-{case[1]}-<lambda>") for case in SPANS),
    *(pytest.param(*case, True, id=f"graded-{case[0]}-{case[1]}") for case in SPANS),
])
def test_block_unknowns_follow_their_t_degree_staircase(family, m, span, graded):
    # One class, split into its sigma halves: each holds one entry of every
    # column, in the same order, with the column's span.  Graded (p1 at the
    # default points): the class's frequency-0 block holds both entries of
    # its columns, and each f >= 1 block is such a pair of halves.
    model = ModelSpec(family, get_germ("p1"), m=m)
    system = assemble(model, N=6) if graded else assemble(model, N=6, points=solver_points(6))
    assert system.graded == graded
    if graded:
        zero, *halves = system.blocks
        assert zero.frequency == 0 and np.array_equal(zero.unknowns[1::2], zero.unknowns[::2] + 1)
        pairs = list(zip(halves[::2], halves[1::2]))
        # |f| = 1 ... N = 6.
        assert [b.frequency for pair in pairs for b in pair] == [f for f in range(1, 7) for _ in "ab"]
    else:
        pairs = [system.blocks]
    for even, odd in pairs:
        assert np.array_equal(even.unknowns // 2, odd.unknowns // 2)
        assert np.array_equal(even.unknowns + odd.unknowns, 4 * (even.unknowns // 2) + 1)
    for b in system.blocks:
        columns = [system.columns[u // 2] for u in b.unknowns]
        got = [(b.degrees[f], b.degrees[l]) for f, l in zip(b.first, b.last)]
        assert got == [span(comp, j) for comp, j, _ in columns]
        # Ordered by (last, first), each pair keeping its column order.
        order = sorted(range(len(columns)), key=lambda u: (b.last[u], b.first[u], b.unknowns[u]))
        assert order == list(range(len(columns)))


@pytest.mark.parametrize("N", range(1, 17))
def test_solver_points_are_closed_under_conjugation(N):
    # N + 4 angles in the upper half plane on each shell, then their exact
    # conjugates: 2N + 8 equally spaced angles per shell, none on the real axis.
    z = np.asarray(solver_points(N))
    h = len(z) // 2
    assert len(z) == 5 * (2 * N + 8)
    assert np.array_equal(z[h:], np.conj(z[:h])) and np.all(z[:h].imag > 0)
    for r in (0.15, 0.25, 0.35, 0.45, 0.55):
        shell = np.sort(np.angle(z[np.isclose(np.abs(z), r, rtol=1e-14)]))
        assert len(shell) == 2 * N + 8
        assert np.allclose(np.diff(shell), 2 * np.pi / (2 * N + 8), rtol=0, atol=1e-12)
        assert np.isclose(shell[0], -np.pi + np.pi / (2 * N + 8), rtol=0, atol=1e-12)


def mirrored(N):
    """The solver's points, each followed by its conjugate.  They are not in
    the (z, then conj z) layout of ``solver_points``, so no block splits."""
    z = np.asarray(solver_points(N))
    return tuple(np.column_stack((z[: len(z) // 2], z[len(z) // 2 :])).ravel())


SIGMA_MODELS = [
    pytest.param(family, m, germ, id=f"{family}-{m}-{germ}")
    for family, m in [(RIGID, 1), (M_NONMINIMAL, 2), (M_NONMINIMAL, 4)]
    for germ in ["p1", "p2", "p3", "control"]
]


@pytest.mark.parametrize("family, m, germ", SIGMA_MODELS)
def test_rows_at_conjugate_points_follow_the_sigma_signs(family, m, germ):
    # sigma maps t to -t: the row of degree d at conj(z) is (-1)^d times the
    # row at z on the sigma-even unknowns, -(-1)^d times it on the odd ones.
    model = ModelSpec(family, get_germ(germ), m=m)
    w = 0 if family == RIGID else 1
    for N in range(2, 17):
        system = assemble(model, N, points=mirrored(N))
        for b in system.blocks:
            A = system.matrix[b.rows, : len(b.unknowns)]
            A = A.reshape(len(b.degrees), -1, 2, len(b.unknowns))  # degree, pair, z or conj z
            comp, j = np.array([system.columns[u // 2][:2] for u in b.unknowns]).T
            parity = (-1.0) ** (b.unknowns % 2 + w * (comp + j))
            sign = (-1.0) ** np.array(b.degrees)[:, None, None] * parity
            assert np.array_equal(A[:, :, 1], sign * A[:, :, 0])


GRADED_MODELS = [
    (RIGID, 1, "p1", False), (M_NONMINIMAL, 2, "p1", False), (M_NONMINIMAL, 3, "p1", False),
    (M_NONMINIMAL, 4, "p1", False), (RIGID, 1, "control", True), (RIGID, 1, "control", False),
]


@pytest.mark.parametrize("N, family, m, germ, vanish, graded", [
    *(pytest.param(N, *case.values, False, False, id=f"{N}-{case.id}")
      for N in (5, 8, 12) for case in SIGMA_MODELS),
    # The graded systems of the radial germs at the default points.
    *(pytest.param(N, family, m, germ, vanish, True,
                   id=f"graded-{N}-{family}-{m}-{germ}-{'aut0' if vanish else 'aut'}")
      for N in (5, 8, 12, 16) for family, m, germ, vanish in GRADED_MODELS),
])
def test_sigma_halves_keep_the_null_space(N, family, m, germ, vanish, graded):
    # The halves, with rows at one point of each conjugate pair, against the
    # unsplit system at both points: the same null space.  The full algebra,
    # so that rigid models keep i dz1 and p3 keeps i dz2.  The solver's
    # points passed explicitly keep p1 and control on the sigma path.
    model = ModelSpec(family, get_germ(germ), m=m)
    unsplit = assemble(model, N, points=mirrored(N), vanish_at_origin=vanish)
    if graded:
        split = assemble(model, N, vanish_at_origin=vanish)
        assert split.graded and set(split.points) == set(unsplit.points)
    else:
        split = assemble(model, N, points=solver_points(N), vanish_at_origin=vanish)
        assert len(split.blocks) == 2 * len(unsplit.blocks)
        assert set(split.points) == set(unsplit.points) and split.n_samples == unsplit.n_samples
        # Each class's sigma-even half, then its odd half: the parities of
        # test_rows_at_conjugate_points_follow_the_sigma_signs.
        w = 0 if family == RIGID else 1
        for i, b in enumerate(split.blocks):
            comp, j = np.array([split.columns[u // 2][:2] for u in b.unknowns]).T
            assert np.all((b.unknowns + w * (comp + j)) % 2 == i % 2)
    a, b = nullspace(split), nullspace(unsplit)
    assert a.dimension == b.dimension
    Qa, Qb = (np.linalg.qr((x.coefficients.view(float) / split.scale).T)[0] for x in (a, b))
    # The sine of the largest principal angle.
    assert np.linalg.norm(Qb - Qa @ (Qa.T @ Qb), 2) <= 1e-8


@pytest.mark.parametrize("vanish", [True, False])
@pytest.mark.parametrize("N", [5, 8, 12])
@pytest.mark.parametrize("family, m", [(RIGID, 1), (M_NONMINIMAL, 2)])
def test_a_germ_wrongly_declared_radial_is_never_confident(family, m, N, vanish):
    # p2's functions under p1's id: the catalog declares it radial, so its
    # system is graded, with rows from the real axis alone, where p2 looks
    # radial.  Validation runs at the unsplit validation points and rejects
    # the rotation i z2 dz2 that the grading leaves in the null space.
    fake = replace(get_germ("p2"), id="p1")
    assert fake.radial and not get_germ("p2").radial
    model = ModelSpec(family, fake, m=m)
    assert assemble(model, N, vanish_at_origin=vanish).graded
    basis, _ = solve_model(model, N=N, vanish_at_origin=vanish)
    assert not basis.confident


@pytest.mark.parametrize("family, m, germ, vanish, frequencies", [
    (M_NONMINIMAL, 2, "p1", True, [0]),
    (RIGID, 1, "p1", False, [0, 0]),
    # su(2,1) graded by rotation: i dz1, i z2 dz2, z1 dz1 + z2 dz2 / 2 and
    # i z1^2 dz1 + i z1 z2 dz2 at f = 0; the two z2-translations and the
    # two fields like 2 z1 z2 dz1 + z1 dz2 + 2 z2^2 dz2 at |f| = 1.  aut_0
    # drops i dz1 and the translations.
    (RIGID, 1, "control", False, [0, 0, 0, 0, 1, 1, 1, 1]),
    (RIGID, 1, "control", True, [0, 0, 0, 1, 1]),
    (ONE_NONMINIMAL, 1, "p1", True, None),
    (RIGID, 1, "p2", False, None),
])
def test_report_gives_each_basis_row_its_frequency(family, m, germ, vanish, frequencies):
    model = ModelSpec(family, get_germ(germ), m=m)
    for N in (5, 12):
        basis, report = solve_model(model, N=N, vanish_at_origin=vanish)
        assert basis.confident
        assert report["frequencies"] == basis.frequencies
        if frequencies is None:
            assert basis.frequencies is None
        else:
            assert sorted(basis.frequencies) == frequencies
            # Each row lives on the columns of its frequency.
            for row, f in zip(basis.coefficients, basis.frequencies):
                assert {frequency(basis.columns[i]) for i in np.flatnonzero(row)} == {f}


@pytest.mark.parametrize("family, m, germ", [
    (RIGID, 1, "counterexample"), (M_NONMINIMAL, 2, "counterexample"),
    *((M_NONMINIMAL, 3, germ) for germ in ["p1", "control"]),
    *((ONE_NONMINIMAL, 1, germ) for germ in ["p1", "p2", "p3", "control", "counterexample"]),
])
def test_nothing_splits_without_sigma(family, m, germ):
    # The counterexample germ is not conjugation-even; odd m and
    # one-nonminimal models have no sigma.
    # p1 and control are graded at the default points: pass them explicitly.
    model = ModelSpec(family, get_germ(germ), m=m)
    for N in (2, 5, 12):
        system = assemble(model, N, points=solver_points(N))
        columns = _columns(N, True)
        supports = surface_polys(model, np.empty(0, complex))
        polys = _column_polys(supports, {c[:2] for c in columns})
        assert len(system.blocks) == len(_weight_blocks(polys, columns))
        for b in system.blocks:
            assert np.array_equal(b.unknowns[1::2], b.unknowns[::2] + 1)
            assert np.all(b.unknowns[::2] % 2 == 0)


def test_assemble_requires_oversampling():
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    with pytest.raises(ConfigurationError, match="2x oversampling"):
        assemble(model, N=5, points=(0.3, 0.4))


def size_case(family, m, N, message, germ="p1"):
    return pytest.param(family, m, N, message, germ, id=f"{family}-{m}-{N}-{message}")


@pytest.mark.parametrize("family, m, N, message, germ", [
    # 51 t-degrees x 280 points against a half's 648 unknowns (p2 is not
    # radial: the sigma halves of every conjugation-even germ).
    size_case(M_NONMINIMAL, 2, 24, "14280 x 648 system, above 8388608 entries", "p2"),
    # 30 t-degrees x 330 points against a half's 928 unknowns.
    size_case(RIGID, 1, 29, "9900 x 928 system, above 8388608 entries", "p2"),
    # The graded radial systems: 5 rows per shell for each t-degree and
    # angle of each frequency block, against the frequency-0 block's 4N
    # unknowns.
    size_case(M_NONMINIMAL, 2, 59, "36025 x 236 system, above 8388608 entries"),
    size_case(RIGID, 1, 75, "28890 x 300 system, above 8388608 entries"),
    # Refused from the unknowns and points alone, before any N^2 work:
    # points x unknowns, halved where sigma can split the blocks; a graded
    # system has at least a row per shell for each unknown.
    size_case(M_NONMINIMAL, 2, 10**12, "at least 10000000000070000000000120000000000000 entries",
              "p2"),
    size_case(RIGID, 1, 10**12, "at least 10000000000070000000000120000000000000 entries", "p2"),
    size_case(M_NONMINIMAL, 3, 10**12, "at least 20000000000140000000000240000000000000 entries",
              "p2"),
    size_case(ONE_NONMINIMAL, 1, 80, "at least 11155200 entries"),
    size_case(M_NONMINIMAL, 2, 10**12, "at least 10000000000030000000000000 entries"),
    size_case(RIGID, 1, 10**12, "at least 10000000000030000000000000 entries"),
])
def test_assemble_refuses_a_system_beyond_its_size_limit(family, m, N, message, germ):
    with pytest.raises(ConfigurationError, match=message):
        assemble(ModelSpec(family, get_germ(germ), m=m), N=N)


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


@pytest.mark.parametrize("germ", ["p2", "p3"])
def test_exact_zero_null_values_give_no_finite_gap(germ):
    # z1 dz1's real-part column is exactly 0, and it is the whole null space
    # at N = 5: the gap is no ratio of the spectrum, and the report writes null.
    basis, report = solve_model(ModelSpec(ONE_NONMINIMAL, get_germ(germ)), N=5)
    assert basis.dimension == 1 and basis.singular_values[-1] == 0.0
    assert basis.gap == float("inf") and report["gap"] is None
    assert basis.status == "confident"


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
    # Row by row: each label is its row's one monomial, coefficient 1 or i.
    assert report["basis"] == [
        [{"component": 1, "j": 1, "k": 0, "re": 1.0, "im": 0.0}],
        [{"component": 2, "j": 0, "k": 1, "re": 0.0, "im": 1.0}],
    ]
    assert "projection_residuals" not in report


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
    floor = max(system.n_samples, system.n_unknowns) * EPS
    with pytest.raises(ParameterError):
        nullspace(system, tau=1e-300)
    with pytest.raises(ParameterError):
        nullspace(system, tau=floor / 2)
    nullspace(system, tau=floor)
    with pytest.raises(ParameterError):
        assemble(model, N=0)


@pytest.mark.parametrize("N", range(2, 17))
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
    + [("control", RIGID, n) for n in range(2, 9)]
    + [("p2", RIGID, n) for n in range(2, 9)],
)
def test_nullspace_matches_direct_thin_svd(germ, family, N):
    # nullspace takes the SVD of each block, or of its staircase R where the
    # block is on the staircase; it must give each block's thin SVD to
    # roundoff, and the same null space.
    system = assemble(ModelSpec(family, get_germ(germ)), N=N)
    basis = nullspace(system)
    s_blocks, V = [], []
    for b in system.blocks:
        A = system.matrix[b.rows, : len(b.unknowns)]
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        s_blocks.append(s)
        full = np.zeros((len(s), system.n_unknowns))
        full[:, b.unknowns] = vt
        V.append(full)
    s, V = np.concatenate(s_blocks), np.concatenate(V)
    order = np.argsort(-s, kind="stable")
    floor = max(system.n_samples, system.n_unknowns) * EPS
    assert np.all(np.abs(basis.singular_values - s[order]) <= floor * s.max())
    if not any(map(on_staircase, system.blocks)):  # one SVD per block: the same bits
        assert np.array_equal(basis.singular_values, s[order])
    # The basis rows, back in the matrix's unknowns, span the direct null vectors.
    null = V[s <= 1e-8 * s.max()]
    Q = np.linalg.qr((basis.coefficients.view(float) / system.scale).T)[0]
    assert len(null) == basis.dimension
    assert np.max(np.abs(null.T - Q @ (Q.T @ null.T)), initial=0.0) <= 1e-10


@pytest.mark.parametrize("family, m", FAMILIES)
@pytest.mark.parametrize("N", range(2, 17))
def test_staircase_r_matches_each_block_thin_svd(family, m, N):
    # The staircase stacks R on each degree's rows and sets aside the rows
    # of the unknowns that appear no more: R^T R is still A^T A.  The blocks
    # on the staircase: those of the sigma layout (the solver's points passed
    # explicitly), and of a non-radial germ at the default points.
    # One-nonminimal blocks have one degree, so none is on it.
    germ = "control" if family == RIGID else "p1"
    models = [ModelSpec(family, get_germ(g), m=m) for g in (germ, "p2")]
    systems = [assemble(models[0], N=N, points=solver_points(N)), assemble(models[1], N=N)]
    blocks = [(system, b) for system in systems for b in system.blocks if on_staircase(b)]
    assert len(blocks) > 0 or family == ONE_NONMINIMAL
    for system, b in blocks:
        floor = max(system.n_samples, system.n_unknowns) * EPS
        A = system.matrix[b.rows, : len(b.unknowns)]
        R = _r_factor(A, b)
        assert np.array_equal(R, np.triu(R))
        _, s, vt = np.linalg.svd(R, full_matrices=False)
        _, s_dense, vt_dense = np.linalg.svd(A, full_matrices=False)
        assert np.all(np.abs(s - s_dense) <= floor * s_dense[0])
        null, null_dense = vt[s <= 1e-8 * s[0]], vt_dense[s_dense <= 1e-8 * s_dense[0]]
        assert len(null) == len(null_dense)
        assert np.max(np.abs(null_dense - null_dense @ null.T @ null), initial=0.0) <= 1e-10


def staircase_r(A, block):
    """R of a block on the staircase, as _r_factor must give it bit for bit:
    one degree a step, R stacked on the degree's rows on the unknowns in
    play, in chunks of at most 4 x (those unknowns) rows, then the rows of
    the unknowns whose last degree it is set aside."""
    n = A.shape[1]
    h = len(A) // len(block.degrees)  # rows per degree
    out = np.zeros((n, n))
    R, play, done = np.zeros((0, 0)), np.arange(0), 0
    for d in range(len(block.degrees)):
        now = done + np.flatnonzero(block.first[done:] <= d)
        grown = np.zeros((len(R), len(now)))
        grown[:, np.searchsorted(now, play)] = R
        R, rows = grown, A[d * h : (d + 1) * h, now]
        i = 0
        while i < len(rows):
            chunk = 4 * len(now) - len(R)
            R = np.linalg.qr(np.vstack((R, rows[i : i + chunk])), mode="r")
            i += chunk
        k = np.count_nonzero(block.last[now] <= d)
        out[done : done + min(k, len(R)), now] = R[:k]
        R, play, done = R[k:, k:], now[k:], done + k
    return out


def on_staircase(block):
    """Whether nullspace factors the block along its staircase: it is not
    graded and has more than one t-degree.  Every other block takes one SVD."""
    return block.frequency is None and len(block.degrees) > 1


def block_factor(A, block):
    """The matrix whose SVD nullspace takes for a block with rows A."""
    return staircase_r(A, block) if on_staircase(block) else A


@pytest.mark.parametrize("family, m", FAMILIES)
@pytest.mark.parametrize("N", range(2, 17))
def test_planned_staircase_keeps_the_staircase_r_bits(family, m, N):
    # _r_factor gives the reference staircase's bits on the blocks that take
    # it: the sigma layout (the solver's points passed explicitly) and a
    # non-radial germ at the default points.
    for model, points in ((ModelSpec(family, get_germ("p1"), m=m), solver_points(N)),
                          (ModelSpec(family, get_germ("p3"), m=m), None)):
        system = assemble(model, N=N, points=points)
        for b in filter(on_staircase, system.blocks):
            A = system.matrix[b.rows, : len(b.unknowns)]
            assert np.array_equal(_r_factor(A, b), staircase_r(A, b))


# The solve-sweep's seven models (perfbench/workloads.py), and three whose
# blocks are on the staircase at the default points.
SELECTION_MODELS = {
    "p1-aut0": (ModelSpec(ONE_NONMINIMAL, get_germ("p1")), True),
    "p2-aut0": (ModelSpec(ONE_NONMINIMAL, get_germ("p2")), True),
    "p3-aut": (ModelSpec(ONE_NONMINIMAL, get_germ("p3")), False),
    "p3-aut0": (ModelSpec(ONE_NONMINIMAL, get_germ("p3")), True),
    "p1-m2-aut0": (ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2), True),
    "hyperquadric-aut0": (ModelSpec(RIGID, get_germ("control")), True),
    "counterexample-aut0": (ModelSpec(ONE_NONMINIMAL, get_germ("counterexample")), True),
    "rigid-p2": (ModelSpec(RIGID, get_germ("p2")), True),
    "p3-m2": (ModelSpec(M_NONMINIMAL, get_germ("p3"), m=2), True),
    "p2-m3": (ModelSpec(M_NONMINIMAL, get_germ("p2"), m=3), True),
}


@pytest.mark.parametrize("name", SELECTION_MODELS)
@pytest.mark.parametrize("N", range(2, 17))
def test_nullspace_takes_one_svd_off_the_staircase(name, N):
    # A graded or one-degree block is one SVD of its rows; an ungraded block
    # of several degrees is the SVD of its staircase R.  nullspace's singular
    # values are those, bit for bit, merged in a stable descending sort.
    model, vanish = SELECTION_MODELS[name]
    for points in (None, solver_points(N)):
        system = assemble(model, N=N, points=points, vanish_at_origin=vanish)
        s = np.concatenate([
            np.linalg.svd(block_factor(system.matrix[b.rows, : len(b.unknowns)], b),
                          full_matrices=False)[1]
            for b in system.blocks])
        assert np.array_equal(nullspace(system).singular_values, s[np.argsort(-s, kind="stable")])


# The settings of the byte-identity checks: every family, each catalog germ
# that reaches it, at m = 2, 3 and 4 for m-nonminimal; N = 1...12 and 16,
# both origin rules, default and explicit points.
LAYOUT_GERMS = {ONE_NONMINIMAL: ("p1", "p2", "p3", "counterexample"),
                RIGID: ("p1", "p2", "p3", "control"), M_NONMINIMAL: ("p1", "p2", "p3", "control")}


def assert_same_system(a, b):
    assert a.matrix.shape == b.matrix.shape and a.matrix.tobytes() == b.matrix.tobytes()
    assert a.columns == b.columns and a.points == b.points
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert (x.degrees, x.rows, x.frequency) == (y.degrees, y.rows, y.frequency)
        for name in ("unknowns", "first", "last"):
            assert np.array_equal(getattr(x, name), getattr(y, name))


@pytest.mark.parametrize("family, m", [(ONE_NONMINIMAL, 1), (RIGID, 1)]
                         + [(M_NONMINIMAL, m) for m in (2, 3, 4)])
def test_a_cached_layout_gives_the_cold_system(family, m):
    # The layout holds no germ value: a system assembled on a layout that
    # another germ built is the one that a cleared cache builds.  Each germ
    # is built after the others once (the second order), so every germ that
    # shares its structure is built warm.
    models = [ModelSpec(family, get_germ(g), m=m) for g in LAYOUT_GERMS[family]]
    for N in list(range(1, 13)) + [16]:
        for vanish in (True, False):
            for points in (None, solver_points(N)):
                cold = {}
                for model in models:
                    _layout.cache_clear()
                    try:
                        cold[model] = assemble(model, N, points=points, vanish_at_origin=vanish)
                    except ConfigurationError:  # a block without 2x oversampling at N = 1
                        assert N == 1
                warm = set()
                for order in (models, models[::-1]):
                    _layout.cache_clear()
                    for model in (model for model in order if model in cold):
                        hits = _layout.cache_info().hits
                        system = assemble(model, N, points=points, vanish_at_origin=vanish)
                        assert_same_system(system, cold[model])
                        if _layout.cache_info().hits > hits:
                            warm.add(model)
                assert len(cold) < 2 or warm == set(cold)


def test_cached_block_arrays_are_read_only():
    # A graded system and a sigma one.
    for model in (ModelSpec(RIGID, get_germ("control")), ModelSpec(RIGID, get_germ("p2"))):
        for b in assemble(model, 8).blocks:
            for array in (b.unknowns, b.first, b.last):
                with pytest.raises(ValueError):
                    array[0] = 1
                with pytest.raises(ValueError):
                    array += 1


def test_structures_that_differ_get_their_own_layout():
    N = 6
    rigid = {g: ModelSpec(RIGID, get_germ(g)) for g in ("p1", "p2", "p3", "counterexample")}
    graded, halves = assemble(rigid["p1"], N), assemble(rigid["p2"], N)
    assert graded.graded and not halves.graded
    assert graded.blocks is not halves.blocks
    # p1's explicit points give the sigma halves, as p2's do.
    explicit = assemble(rigid["p1"], N, points=solver_points(N))
    assert not explicit.graded and explicit.blocks is not graded.blocks
    assert explicit.blocks is halves.blocks
    # The counterexample germ is not conjugation-even: no sigma halves.
    whole = assemble(rigid["counterexample"], N)
    assert len(whole.blocks) < len(halves.blocks) and whole.blocks is not halves.blocks
    assert assemble(rigid["p3"], N).blocks is halves.blocks


def test_a_refused_structure_is_refused_on_every_call():
    model = ModelSpec(M_NONMINIMAL, get_germ("p2"), m=2)
    size = _layout.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="14280 x 648 system"):
            assemble(model, 24)
    assert _layout.cache_info().currsize == size


def echelon_key(column):
    """The echelon order of a monomial (comp, j, k): total degree, then
    component, then j descending."""
    comp, j, k = column
    return (j + k, comp, -j)


def gauss_jordan(rows, tol):
    """Reduced row echelon form of the rows (lists of numbers), one entry at
    a time: before each step the rows not yet reduced are scaled to a
    largest entry of 1, and the first entry, not yet a pivot, where one of
    them is above tol is the pivot.  Entries at most tol become 0.  Returns
    the rows, sorted by pivot, and their pivots."""
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    for k in range(len(rows)):
        for i in range(k, len(rows)):
            top = max(abs(x) for x in rows[i])
            rows[i] = [x / top for x in rows[i]]
        c = next(c for c in range(width) if c not in pivots
                 and any(abs(rows[i][c]) > tol for i in range(k, len(rows))))
        r = max(range(k, len(rows)), key=lambda i: abs(rows[i][c]))
        rows[k], rows[r] = rows[r], rows[k]
        p = rows[k][c]
        rows[k] = [x / p for x in rows[k]]
        for i in range(len(rows)):
            if i != k:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    rows = [[0.0 if abs(x) <= tol else x for x in row] for row in rows]
    rank = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in rank], [pivots[i] for i in rank]


def label_of(f):
    """A field written as its terms in echelon order, coefficients to 6
    significant digits: "z1 dz1", "-2i z2 dz1", "(1 + 2i) dz2"."""
    text = ""
    recs = sorted(f.to_records(), key=lambda r: echelon_key((r["component"], r["j"], r["k"])))
    for r in recs:
        z = "".join(f"z{v}" + (f"^{e}" if e > 1 else "") + " "
                    for v, e in ((1, r["j"]), (2, r["k"])) if e) + f"dz{r['component']}"
        if r["re"] and r["im"]:
            sign = "+"
            coef = f"({r['re']:.6g} {'-' if r['im'] < 0 else '+'} {abs(r['im']):.6g}i) "
        else:
            x = r["re"] or r["im"]
            sign, size = "-" if x < 0 else "+", f"{abs(x):.6g}"
            coef = ("" if size == "1" else size) + ("i" if r["im"] else "")
            coef += " " if coef else ""
        text += f" {sign} {coef}{z}" if text else ("-" if sign == "-" else "") + coef + z
    return text


def per_vector_report(model, N):
    """The parts of solve_model's report that nullspace and canonicalize
    make, built one null vector at a time: a block SVD row per null vector,
    a Gauss-Jordan pass over each block's null vectors, their entries in
    echelon order (blocks share no unknown), a field per echelon row, its
    validation_residual and its label."""
    system = assemble(model, N)
    vectors = []
    for b in system.blocks:
        A = system.matrix[b.rows, : len(b.unknowns)]
        _, s_b, vt_b = np.linalg.svd(block_factor(A, b), full_matrices=False)
        vectors += [(value, b, v) for value, v in zip(s_b, vt_b)]
    vectors.sort(key=lambda item: -item[0])  # stable: ties keep block order
    s = np.array([value for value, _, _ in vectors])
    null = s <= 1e-8 * s[0]
    floor = max(system.n_samples, system.n_unknowns) * EPS
    # The null vectors are known to the roundoff floor or the largest null
    # value over the smallest value kept out; the echelon tolerance is the
    # square root of that.
    above, below = s[~null], s[null]
    noise = max(floor * s[0], max(below, default=0.0)) / min(above) if len(above) else floor
    columns = system.columns
    entries = [2 * i + e for i in sorted(range(len(columns)), key=lambda i: echelon_key(columns[i]))
               for e in (0, 1)]
    reduced = []  # (echelon position of the pivot, coefficient vector)
    for b in system.blocks:
        mine = [v for (_, block, v), n in zip(vectors, null) if n and block is b]
        if not mine:
            continue
        unknowns = sorted(b.unknowns.tolist(), key=entries.index)
        rows, pivots = gauss_jordan([[v[list(b.unknowns).index(u)] for u in unknowns] for v in mine],
                                    float(np.sqrt(noise)))
        for row, p in zip(rows, pivots):
            x = np.zeros(system.n_unknowns)
            x[unknowns] = row
            reduced.append((entries.index(unknowns[p]), x * system.scale / system.scale[unknowns[p]]))
    basis = [field_from_vector(x, columns) for _, x in sorted(reduced, key=lambda item: item[0])]
    resids = [validation_residual(model, f) for f in basis]
    tiny = np.finfo(float).tiny
    finite = 0 < null.sum() < len(s) and s[null].max() > 0
    gap = float(s[~null].min() / max(s[null].max(), tiny)) if finite else None
    z = VALIDATION_POINTS
    level = min(1.0, float(np.max(np.abs(model.germ(z)))),
                float(np.max(np.abs(z * model.germ.wirt(z)))))
    certified = all(
        r <= CERT_TOL * level * max(f.max_coefficient(), tiny) for r, f in zip(resids, basis)
    )
    at_floor = all(value <= floor * s[0] for value in s[null])
    if gap is not None and gap < 10:
        status = "ambiguous"
    else:
        confident = (gap is None or gap >= 1e3) and certified and at_floor
        status = "confident" if confident else "unconfirmed"
    return {
        "singular_values": s.tolist(),
        "dimension": len(basis),
        "gap": gap,
        "status": status,
        "basis": [f.to_records() for f in basis],
        "labels": [label_of(f) for f in basis],
        "validation_residuals": resids,
    }


ORACLE_MODELS = {
    "p1": ModelSpec(ONE_NONMINIMAL, get_germ("p1")),
    "counterexample": ModelSpec(ONE_NONMINIMAL, get_germ("counterexample")),
    "p1-m2": ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2),
    "hyperquadric": ModelSpec(RIGID, get_germ("control")),
}


def residual_coefficients(model, f, z):
    """f's tangency residual as a polynomial in t, {degree: real coefficient
    at the points z}, multiplied out term by term from the surface frame."""
    z1, g1, g2 = surface_polys(model, z)

    def mul(a, b):
        out = {}
        for da, va in a.items():
            for db, vb in b.items():
                out[da + db] = out.get(da + db, 0) + va * vb
        return out

    total = {}
    for g, coeffs in ((g1, f.coeffs1), (g2, f.coeffs2)):
        for (j, k), c in coeffs.items():
            term = {0: c * z**k}
            for _ in range(j):
                term = mul(term, z1)
            for d, v in mul(term, g).items():
                total[d] = total.get(d, 0) + v
    return {d: np.real(v) for d, v in total.items()}


@pytest.mark.parametrize(
    "name, N",
    [pytest.param(name, N, id=name if N == 5 else f"{name}-N{N}")
     for N in (5, 12) for name in ORACLE_MODELS],
)
def test_validation_residual_equals_tangency_residual(name, N):
    # A validation residual is the largest real t-coefficient of the field's
    # tangency residual at the validation z2 points, and that polynomial in t
    # is the tangency residual at every sampled t.  nullspace certifies and
    # converts its whole null block at once, and canonicalize indexes that
    # block; the report must equal the one built a vector at a time, bit for
    # bit.
    model = ORACLE_MODELS[name]
    basis = nullspace(assemble(model, N=N))
    assert basis.dimension > 0
    z = VALIDATION_POINTS
    t = (0.04, -0.04, 0.11, -0.11, 0.19, -0.19, 0.28, -0.28)
    T, Z = (a.ravel() for a in np.meshgrid(t, z, indexing="ij"))
    for f, r in zip(basis.basis, basis.validation_residuals):
        assert validation_residual(model, f) == r
        coeffs = residual_coefficients(model, f, z)
        size = sum(map(abs, [*f.coeffs1.values(), *f.coeffs2.values()]))
        assert abs(r - max(np.max(np.abs(c)) for c in coeffs.values())) <= 1e-14 * size
        sampled = sum(T**d * np.tile(c, len(t)) for d, c in coeffs.items())
        assert np.max(np.abs(sampled - tangency_residual(model, f, T, Z))) <= 1e-14 * size
    _, report = solve_model(model, N=N)
    reference = per_vector_report(model, N)
    assert json.dumps({k: report[k] for k in reference}) == json.dumps(reference)


def test_validation_residual_is_per_model_and_grid():
    # Alternating models must each get their own surface frame.  i z1 dz1
    # leaves the t-coefficients -(1 + P^2) / 2 on one-nonminimal, and 1/2
    # and P^2 on m = 2.
    f = monomial_field(1, 1, 0, 1j)
    g = get_germ("p1")
    a = ModelSpec(ONE_NONMINIMAL, g)
    b = ModelSpec(M_NONMINIMAL, g, m=2)
    p_max = float(np.max(g(VALIDATION_POINTS)))
    closed = {a: (1 + p_max**2) / 2, b: max(0.5, p_max**2)}

    calls = [a, b, a, b, a]
    got = [validation_residual(model, f) for model in calls]
    assert got == [validation_residual(model, f) for model in calls]
    assert np.allclose(got, [closed[model] for model in calls], rtol=4 * EPS, atol=0)
    assert len(set(got)) == 2


@pytest.mark.parametrize(
    "family, a, m",
    [(ONE_NONMINIMAL, 8.0, 1), (ONE_NONMINIMAL, 10.0, 1), (RIGID, 8.0, 1), (M_NONMINIMAL, 8.0, 2)],
)
def test_p_term_at_most_tau_at_every_sample_is_rejected(family, a, m):
    # exp(-1/|z|^8) <= 2e-52 at the z2 points: they see the Levi-flat model,
    # and the solver used to report a confident dimension 45.  Exact
    # t-coefficients carry P unscaled, so the rule is the same for every
    # family and m.
    model = ModelSpec(family, get_germ("p1", a=a), m=m)
    with pytest.raises(ParameterError, match="not identically zero.*not above 1e-08"):
        solve_model(model)


def test_p_term_rule_follows_tau():
    # a = 5: max |P| over the solver's z2 points is 2.35e-9.
    system = assemble(ModelSpec(ONE_NONMINIMAL, get_germ("p1", a=5.0)), N=5)
    with pytest.raises(ParameterError, match="max [|]P[|] = 2.35e-09 .*not above 1e-08"):
        nullspace(system, tau=1e-8)
    # Below it the model is solved, but the fields tangent only to the
    # Levi-flat model leave residuals of order P^2 and are not certified.
    basis = nullspace(system, tau=1e-9)
    assert basis.status == "unconfirmed" and basis.dimension > 2


@pytest.mark.parametrize("family, germ, m, right", [
    (ONE_NONMINIMAL, "p1", 1, 2),
    (M_NONMINIMAL, "p3", 2, 0),
])
def test_nearly_constant_p_is_not_certified(family, germ, m, right):
    # With a = 1e-6, P is nearly the constant 1/e: the model is nearly
    # Levi-flat, and a field tangent to the flat model leaves a residual of
    # the order of P's variation, max |z dP/dz| at the validation points
    # (2e-7 for p1, 1e-5 for p3).  The certificate scales with it, so the
    # extra fields (p1 reported dimension 31, p3 m = 2 reported z2 dz2) are
    # not confident.
    model = ModelSpec(family, get_germ(germ, a=1e-6), m=m)
    z = VALIDATION_POINTS
    assert np.max(np.abs(z * model.germ.wirt(z))) < 1e-4
    basis, _ = solve_model(model, N=5)
    assert basis.dimension > right
    assert basis.status == "unconfirmed"


@pytest.mark.parametrize("m", [*range(2, 31), 50, 400])
def test_m_nonminimal_is_confident_only_where_right(m):
    # Dimension 1 (i z2 dz2) for every m: the exact t-coefficients see the
    # t^m P term whatever m is.
    basis, _ = solve_model(ModelSpec(M_NONMINIMAL, get_germ("p1"), m=m))
    assert basis.confident
    assert basis.labels == ["i z2 dz2"]


# The worked examples: (germ, family, m, vanish, labels).  The hyperquadric
# rows of the table are test_hyperquadric_algebra_dimensions.
BASELINE = {
    "p1-aut0": ("p1", ONE_NONMINIMAL, 1, True, ["i z2 dz2", "z1 dz1"]),
    "p2-aut0": ("p2", ONE_NONMINIMAL, 1, True, ["z1 dz1"]),
    "p3-aut": ("p3", ONE_NONMINIMAL, 1, False, ["i dz2", "z1 dz1"]),
    "p3-aut0": ("p3", ONE_NONMINIMAL, 1, True, ["z1 dz1"]),
    "p1-m2-aut0": ("p1", M_NONMINIMAL, 2, True, ["i z2 dz2"]),
}


@pytest.mark.parametrize("name", BASELINE)
@pytest.mark.parametrize("N", range(5, 17))
def test_baseline_answers_do_not_depend_on_N(name, N):
    germ, family, m, vanish, want = BASELINE[name]
    basis, _ = solve_model(ModelSpec(family, get_germ(germ), m=m), N=N, vanish_at_origin=vanish)
    assert basis.status == "confident"
    assert sorted(basis.labels) == want


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0])
@pytest.mark.parametrize("N", [5, 8, 12])
def test_flat_p1_is_never_wrongly_confident(a, N):
    # The larger a, the closer the model is to the Levi-flat one: from a = 3
    # fields tangent to P = 0 leave residuals of order P^2 and below, and
    # from a = 5 max |P| <= tau.
    model = ModelSpec(ONE_NONMINIMAL, get_germ("p1", a=a))
    try:
        basis, _ = solve_model(model, N=N)
    except ParameterError:
        assert a >= 5
        return
    if basis.confident:
        assert sorted(basis.labels) == ["i z2 dz2", "z1 dz1"]
    assert basis.confident == (a <= 2)


@pytest.mark.parametrize("N", range(5, 13))
def test_counterexample_germ_is_never_confident(N):
    # P == 0 on most of the z2 points: the points cannot pin the algebra.
    basis, _ = solve_model(ModelSpec(ONE_NONMINIMAL, get_germ("counterexample")), N=N)
    assert not basis.confident


@pytest.mark.parametrize("germ, family", [("p1", ONE_NONMINIMAL), ("control", RIGID)])
def test_canonicalize_relabels_its_own_output(germ, family):
    # canonicalize reads the basis's coefficient block, which its own output
    # carries too, and writes one label per row.
    labeled, report = solve_model(ModelSpec(family, get_germ(germ)))
    again = canonicalize(labeled)
    assert again.labels == report["labels"]
    assert [f.to_records() for f in again.basis] == report["basis"]
    assert again.labels == [label_of(f) for f in again.basis]
    if germ == "p1":
        assert again.labels == ["z1 dz1", "i z2 dz2"]
    else:
        assert again.labels[0] == "z1 dz1 + 0.5 z2 dz2"


@pytest.mark.parametrize("name", ORACLE_MODELS)
@pytest.mark.parametrize("N", [5, 12])
def test_basis_rows_are_in_reduced_row_echelon_form(name, N):
    # Each row has a pivot entry 1, the first of its entries in echelon
    # order; the pivots rise from row to row, and each pivot entry is 0 in
    # every other row (test_nullspace_matches_direct_thin_svd checks that
    # they span the SVD's null vectors).
    # The unknowns are numbered in echelon order (re before im), so the
    # pivots rise by unknown index.
    model = ORACLE_MODELS[name]
    system = assemble(model, N)
    basis = canonicalize(nullspace(system))
    R = basis.coefficients.view(float)
    pivots = [int(np.flatnonzero(row)[0]) for row in R]
    assert pivots == sorted(set(pivots)) and len(pivots) == basis.dimension
    assert np.array_equal(R[:, pivots], np.eye(basis.dimension))
    assert len(basis.labels) == len(basis.validation_residuals) == basis.dimension
    assert all(label != "unidentified" for label in basis.labels)


def test_replace_keeps_the_coefficient_block():
    basis = nullspace(assemble(ModelSpec(ONE_NONMINIMAL, get_germ("p1")), N=5))
    copy = replace(basis)
    assert copy.coefficients is basis.coefficients
    assert copy.columns == basis.columns
    assert copy.basis == basis.basis
    assert canonicalize(copy).labels == ["z1 dz1", "i z2 dz2"]


@pytest.mark.parametrize("N", [*range(1, 13), 16])
@pytest.mark.parametrize("vanish", [True, False])
def test_columns_are_numbered_in_echelon_order(N, vanish):
    columns = _columns(N, vanish)
    assert list(columns) == sorted(columns, key=echelon_key)
    monomials = {(j, d - j) for d in range(N + 1) for j in range(d + 1)}
    if vanish:
        monomials.remove((0, 0))
    assert sorted(columns) == sorted((comp, *mono) for comp in (1, 2) for mono in monomials)


@pytest.mark.parametrize("name", SELECTION_MODELS)
@pytest.mark.parametrize("N", [2, 7, 12])
def test_pivots_ascend_by_unknown_index(name, N):
    # Graded, sigma-split, staircase and whole blocks alike: each block's
    # rows are reduced over its unknowns in index order, and the merged
    # rows' pivots rise.
    model, vanish = SELECTION_MODELS[name]
    for points in (None, solver_points(N)):
        basis = nullspace(assemble(model, N=N, points=points, vanish_at_origin=vanish))
        pivots = [int(np.flatnonzero(row)[0]) for row in basis.coefficients.view(float)]
        assert pivots == sorted(set(pivots))


def counting_germ(germ_id):
    """germ_id's germ, which records the points of each P and dP/dz call."""
    germ = get_germ(germ_id)
    calls = {"P": [], "dP/dz": []}

    def recorded(name, fn):
        def fn_recorded(z):
            calls[name].append(np.array(z))
            return fn(z)
        return fn_recorded

    return replace(germ, eval_fn=recorded("P", germ.eval_fn),
                   wirt_fn=recorded("dP/dz", germ.wirt_fn)), calls


@pytest.mark.parametrize("germ_id", ["p1", "p2"])
@pytest.mark.parametrize("family, m", [(ONE_NONMINIMAL, 1), (RIGID, 1), (M_NONMINIMAL, 2)])
def test_the_germ_is_evaluated_once_where_rows_are_written(germ_id, family, m):
    # assemble evaluates P and dP/dz once each: at the graded system's five
    # real shell points, or at the solver points; nullspace only at the
    # validation points.
    germ, calls = counting_germ(germ_id)
    model = ModelSpec(family, germ, m=m)
    for name in calls:
        calls[name].clear()
    N = 6
    system = assemble(model, N)
    assert system.graded == (germ_id == "p1" and family != ONE_NONMINIMAL)
    rows_at = np.array(SOLVER_SHELLS if system.graded else solver_points(N), complex)
    for points in calls.values():
        assert len(points) == 1 and np.array_equal(points.pop(), rows_at)
    nullspace(system)
    for points in calls.values():
        assert len(points) == 1 and np.array_equal(points.pop(), VALIDATION_POINTS)


def test_nullspace_refuses_p_max_at_tau_without_evaluating_the_germ():
    germ, calls = counting_germ("p2")
    system = assemble(ModelSpec(ONE_NONMINIMAL, germ), N=5)
    for name in calls:
        calls[name].clear()
    with pytest.raises(ParameterError, match="max [|]P[|] = 1e-08 .*not above 1e-08"):
        nullspace(replace(system, p_max=1e-8), tau=1e-8)
    assert calls == {"P": [], "dP/dz": []}
