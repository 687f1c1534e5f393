"""The real coefficient vector of a field over the solver's monomial columns,
and back: entries 2i and 2i + 1 are the real and imaginary parts of the
coefficient of ``columns[i]`` (``TangencySystem.columns``)."""

import numpy as np

from crlab.autsolve import _fields_from_rows


def field_from_vector(x, columns):
    """Field whose coefficient of monomial ``columns[i]`` is x[2i] + i x[2i+1]."""
    # + 0.0 turns a -0.0 part into 0.0, as nullspace does.
    return _fields_from_rows((np.asarray(x, dtype=float)[None] + 0.0).view(complex), columns)[0]


def vector_from_field(f, columns):
    """Coefficient vector of f over the monomial ``columns``, or None if f
    uses a monomial outside the columns."""
    idx = {key: i for i, key in enumerate(columns)}
    x = np.zeros(2 * len(columns))
    for comp, coeffs in ((1, f.coeffs1), (2, f.coeffs2)):
        for (j, k), v in coeffs.items():
            if v == 0:
                continue
            i = idx.get((comp, j, k))
            if i is None:
                return None
            x[2 * i] = v.real
            x[2 * i + 1] = v.imag
    return x
