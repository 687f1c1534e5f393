"""Polynomial holomorphic vector fields H = h1 dz1 + h2 dz2 and the
pointwise tangency residual Re[rho_z1 h1 + rho_z2 h2] on a model surface."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, surface_frame

Coeffs = dict[tuple[int, int], complex]


@dataclass(frozen=True)
class VectorFieldPoly:
    """Sparse polynomial field: coeffs maps (j, k) -> complex coefficient
    of z1^j z2^k, one map per component."""

    coeffs1: Coeffs
    coeffs2: Coeffs

    def __post_init__(self):
        for c in (self.coeffs1, self.coeffs2):
            for (j, k) in c:
                if j < 0 or k < 0:
                    raise ValueError("monomial indices must be non-negative")

    def eval(self, z1, z2):
        """(h1(z1,z2), h2(z1,z2)); fixed summation order for reproducibility."""
        h1 = _eval_sparse(self.coeffs1, z1, z2)
        h2 = _eval_sparse(self.coeffs2, z1, z2)
        return h1, h2

    def max_coefficient(self) -> float:
        vals = [abs(v) for v in self.coeffs1.values()] + [
            abs(v) for v in self.coeffs2.values()
        ]
        return max(vals, default=0.0)

    def to_records(self) -> list[dict]:
        """The report rows, one per monomial in (component, j, k) order."""
        recs = []
        for comp, coeffs in ((1, self.coeffs1), (2, self.coeffs2)):
            for (j, k) in sorted(coeffs):
                v = coeffs[(j, k)]
                recs.append(
                    {"component": comp, "j": j, "k": k, "re": v.real, "im": v.imag}
                )
        return recs


def _eval_sparse(coeffs: Coeffs, z1, z2):
    # Two complex scalars (a flow right-hand side) take plain Python
    # arithmetic: numpy's 0-d overhead is most of a scalar call.  The
    # results are bit-identical to the array formula's.
    if isinstance(z1, complex) and isinstance(z2, complex):
        z1, z2 = complex(z1), complex(z2)
        total = 0j
        for (j, k) in sorted(coeffs):
            total = total + coeffs[(j, k)] * _scalar_power(z1, j) * _scalar_power(z2, k)
        return total
    # Otherwise (c z1^j) z2^k is added in key order.
    z1, z2 = np.asarray(z1), np.asarray(z2)
    keys = sorted(coeffs)
    pow1 = {j: z1**j for j in {j for j, _ in keys}}
    pow2 = {k: z2**k for k in {k for _, k in keys}}
    total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    # Each term is formed in a full-shape buffer: numpy's scalar complex
    # product rounds differently from its array loop.
    term = np.empty_like(total)
    for (j, k) in keys:
        total += np.multiply(np.multiply(complex(coeffs[(j, k)]), pow1[j], out=term), pow2[k],
                             out=term)
    return complex(total) if total.ndim == 0 else total


def _scalar_power(z: complex, j: int) -> complex:
    # numpy squares with np.square, which rounds differently from z * z.
    return complex(np.asarray(z) ** 2) if j == 2 else z**j


def monomial_field(component: int, j: int, k: int, coef: complex = 1.0) -> VectorFieldPoly:
    if component == 1:
        return VectorFieldPoly({(j, k): complex(coef)}, {})
    return VectorFieldPoly({}, {(j, k): complex(coef)})


def linear_diag_field(alpha: float, beta: float) -> VectorFieldPoly:
    """alpha z1 dz1 + i beta z2 dz2."""
    return VectorFieldPoly({(1, 0): complex(alpha)}, {(0, 1): 1j * beta})


def tangency_residual(model: ModelSpec, f: VectorFieldPoly, t, z2):
    """Re[rho_z1 h1 + rho_z2 h2] at the exact surface point (t, z2).

    Linear over R in the field coefficients; vanishes identically iff the
    real part of the field is tangent to the model along the sampled set.
    """
    z1, z2c, g1, g2 = surface_frame(model, t, z2)
    h1, h2 = f.eval(z1, z2c)
    return np.real(g1 * h1 + g2 * h2)
