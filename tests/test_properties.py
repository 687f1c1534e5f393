"""Property tests: germ evaluation on and off the domain disk, and the
coefficient codecs of the solver and of VectorFieldPoly."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crlab import (  # noqa: E402
    CATALOG_IDS,
    DomainError,
    ModelSpec,
    ONE_NONMINIMAL,
    VectorFieldPoly,
    assemble,
    get_germ,
)
from crlab.autsolve import field_from_vector, vector_from_field  # noqa: E402

# Derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

GERMS = {gid: get_germ(gid) for gid in CATALOG_IDS}

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
def fields_on(draw, columns):
    coeffs = draw(st.dictionaries(st.sampled_from(columns), nonzero))
    c1 = {(j, k): v for (comp, j, k), v in coeffs.items() if comp == 1}
    c2 = {(j, k): v for (comp, j, k), v in coeffs.items() if comp == 2}
    return VectorFieldPoly(c1, c2)


@pytest.mark.parametrize("columns", COLUMNS, ids=("vanish-at-origin", "with-origin"))
@PROPERTY
@given(data=st.data())
def test_coefficient_vector_round_trip(columns, data):
    f = data.draw(fields_on(columns))
    assert field_from_vector(vector_from_field(f, columns), columns) == f


monomials = st.tuples(st.integers(0, 20), st.integers(0, 20))
coeffs = st.dictionaries(monomials, st.complex_numbers(allow_nan=False))


@PROPERTY
@given(c1=coeffs, c2=coeffs)
def test_records_round_trip(c1, c2):
    f = VectorFieldPoly(c1, c2)
    assert VectorFieldPoly.from_records(f.to_records()) == f
