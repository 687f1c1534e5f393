"""Polynomial holomorphic vector fields H = h1 dz1 + h2 dz2 and the
pointwise tangency residual Re[rho_z1 h1 + rho_z2 h2] on a model surface."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec, surface_frame

Coeffs = dict[tuple[int, int], complex]


@dataclass(frozen=True)
class VectorFieldPoly:
    """Sparse polynomial field: coeffs maps (j, k) -> complex coefficient
    of z1^j z2^k, one map per component."""

    coeffs1: Coeffs = field(default_factory=dict)
    coeffs2: Coeffs = field(default_factory=dict)

    def __post_init__(self):
        for c in (self.coeffs1, self.coeffs2):
            for (j, k) in c:
                if j < 0 or k < 0:
                    raise ValueError("monomial indices must be non-negative")

    @property
    def degree_bound(self) -> int:
        idx = list(self.coeffs1) + list(self.coeffs2)
        return max((j + k for j, k in idx), default=0)

    def eval(self, z1, z2):
        """(h1(z1,z2), h2(z1,z2)); fixed summation order for reproducibility."""
        h1 = _eval_sparse(self.coeffs1, z1, z2)
        h2 = _eval_sparse(self.coeffs2, z1, z2)
        return h1, h2

    def __add__(self, other: "VectorFieldPoly") -> "VectorFieldPoly":
        return VectorFieldPoly(
            _merge(self.coeffs1, other.coeffs1), _merge(self.coeffs2, other.coeffs2)
        )

    def __rmul__(self, s) -> "VectorFieldPoly":
        return VectorFieldPoly(
            {k: s * v for k, v in self.coeffs1.items()},
            {k: s * v for k, v in self.coeffs2.items()},
        )

    __mul__ = __rmul__

    def max_coefficient(self) -> float:
        vals = [abs(v) for v in self.coeffs1.values()] + [
            abs(v) for v in self.coeffs2.values()
        ]
        return max(vals, default=0.0)

    def to_records(self) -> list[dict]:
        recs = []
        for comp, coeffs in ((1, self.coeffs1), (2, self.coeffs2)):
            for (j, k) in sorted(coeffs):
                v = coeffs[(j, k)]
                recs.append(
                    {"component": comp, "j": j, "k": k, "re": v.real, "im": v.imag}
                )
        return recs

    def to_json(self) -> str:
        return json.dumps(self.to_records())

    @classmethod
    def from_records(cls, recs) -> "VectorFieldPoly":
        c1: Coeffs = {}
        c2: Coeffs = {}
        for r in recs:
            tgt = c1 if r["component"] == 1 else c2
            tgt[(r["j"], r["k"])] = complex(r["re"], r["im"])
        return cls(c1, c2)

    @classmethod
    def from_json(cls, s: str) -> "VectorFieldPoly":
        return cls.from_records(json.loads(s))


def _eval_sparse(coeffs: Coeffs, z1, z2):
    # Two complex scalars (a flow right-hand side) take plain Python
    # arithmetic: numpy's 0-d overhead is most of a scalar call.  The
    # results are bit-identical to the array formula's.
    if isinstance(z1, complex) and isinstance(z2, complex):
        z1, z2 = complex(z1), complex(z2)
        total, power = 0j, _scalar_power
    else:
        z1, z2 = np.asarray(z1), np.asarray(z2)
        total, power = np.zeros(np.broadcast(z1, z2).shape, dtype=complex), pow
    # Powers are cached on first use: tables built up front slow down the
    # scalar calls that flow right-hand sides make.
    pow1: dict = {}
    pow2: dict = {}
    for (j, k) in sorted(coeffs):
        a = pow1.get(j)
        if a is None:
            a = pow1[j] = power(z1, j)
        b = pow2.get(k)
        if b is None:
            b = pow2[k] = power(z2, k)
        total = total + coeffs[(j, k)] * a * b
    if isinstance(total, np.ndarray) and total.ndim == 0:
        return complex(total)
    return total


def _scalar_power(z: complex, j: int) -> complex:
    # numpy squares with np.square, which rounds differently from z * z.
    return complex(np.asarray(z) ** 2) if j == 2 else z**j


def _merge(a: Coeffs, b: Coeffs) -> Coeffs:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


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
    return residual_on_frame(f, *surface_frame(model, t, z2))


def residual_on_frame(f: VectorFieldPoly, z1, z2, g1, g2):
    """Re[g1 h1 + g2 h2] at surface points (z1, z2) with rho gradient (g1, g2)."""
    h1, h2 = f.eval(z1, z2)
    return np.real(g1 * h1 + g2 * h2)
