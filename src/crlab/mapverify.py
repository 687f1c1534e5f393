"""Verification of candidate CR automorphisms and the structural
predicates on P (rotational symmetry, parity, reparametrization laws)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, DomainError, InsufficientDataError, ParameterError
from .germs import SmoothGerm
from .models import ModelSpec, rho, surface_point

DELTA_FIT_FLOOR = 1e-100


def _require_finite(name: str, value: float):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class Scale:
    s: float

    def __post_init__(self):
        _require_finite("scale factor", self.s)
        if self.s == 0:
            raise DegenerateMapError("scale factor must be nonzero real")

    def apply(self, z1, z2):
        return self.s * np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)


@dataclass(frozen=True)
class Rotate:
    theta: float

    def __post_init__(self):
        _require_finite("rotation angle", self.theta)

    def apply(self, z1, z2):
        return np.asarray(z1, dtype=complex), np.exp(1j * self.theta) * np.asarray(
            z2, dtype=complex
        )

    def g2_coeffs(self):
        return (0.0, np.exp(1j * self.theta))


@dataclass(frozen=True)
class TranslateIm:
    t: float

    def __post_init__(self):
        _require_finite("translation", self.t)

    def apply(self, z1, z2):
        return np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex) + 1j * self.t


@dataclass(frozen=True)
class Negate:
    def apply(self, z1, z2):
        return np.asarray(z1, dtype=complex), -np.asarray(z2, dtype=complex)

    def g2_coeffs(self):
        return (0.0, -1.0)


@dataclass(frozen=True)
class GeneralPair:
    """(z1, z2) -> (c z1, g2(z2)) with real c != 0 and polynomial g2,
    g2(0) = 0.  Coefficients ascending."""

    c: float
    g2: tuple

    def __post_init__(self):
        if self.c == 0:
            raise DegenerateMapError("first-component factor must be nonzero real")
        if len(self.g2) == 0 or self.g2[0] != 0:
            raise DegenerateMapError("g2 must be a polynomial with g2(0) = 0")

    def apply(self, z1, z2):
        return self.c * np.asarray(z1, dtype=complex), eval_poly(self.g2, z2)

    def g2_coeffs(self):
        return self.g2


@dataclass(frozen=True)
class Compose:
    maps: tuple

    def apply(self, z1, z2):
        for m in reversed(self.maps):  # rightmost acts first
            z1, z2 = m.apply(z1, z2)
        return z1, z2


def eval_poly(coeffs, z):
    z = np.asarray(z, dtype=complex)
    total = np.zeros_like(z)
    for c in reversed(coeffs):
        total = total * z + c
    return total


def simplify(m):
    """Merge adjacent same-kind factors: Scale*Scale and Rotate*Rotate
    collapse exactly at the coefficient level."""
    if not isinstance(m, Compose):
        return m
    flat = []
    for part in m.maps:
        part = simplify(part)
        parts = part.maps if isinstance(part, Compose) else (part,)
        for p in parts:
            if flat and isinstance(p, Scale) and isinstance(flat[-1], Scale):
                flat[-1] = Scale(flat[-1].s * p.s)
            elif flat and isinstance(p, Rotate) and isinstance(flat[-1], Rotate):
                flat[-1] = Rotate(flat[-1].theta + p.theta)
            else:
                flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Compose(tuple(flat))


def invariance_residual(model: ModelSpec, mp, grid) -> float:
    """max |rho(f(p))| over the on-surface samples of the grid."""
    T, Z2 = grid.samples()
    z1, z2 = surface_point(model, T, Z2)
    w1, w2 = mp.apply(z1, z2)
    bad = np.abs(w2) > model.germ.radius * (1 + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"image of sample t={T[i]}, z2={Z2[i]} leaves the domain disk"
        )
    return float(np.max(np.abs(rho(model, w1, w2))))


def check_reparam(germ: SmoothGerm, g2_coeffs, grid):
    """sup |P(g2(z)) - P(z)| and the least-squares delta with
    P(g2(z)) ~ delta * P(z) over non-underflowed samples."""
    z = np.asarray(list(grid), dtype=complex)
    w = eval_poly(tuple(g2_coeffs), z)
    germ.check_inside(z)
    germ.check_inside(w)
    p = np.asarray(germ(z), dtype=float)
    q = np.asarray(germ(w), dtype=float)
    sup_diff = float(np.max(np.abs(q - p)))
    mask = np.abs(p) >= DELTA_FIT_FLOOR
    if mask.sum() < 3:
        raise InsufficientDataError("too few samples with |P| above the fit floor")
    delta_hat = float(np.dot(q[mask], p[mask]) / np.dot(p[mask], p[mask]))
    return sup_diff, delta_hat


def check_modulus_derivative(g2_coeffs) -> float:
    """| |g2'(0)| - 1 | from the exact linear coefficient."""
    coeffs = tuple(g2_coeffs)
    if len(coeffs) < 2 or coeffs[1] == 0:
        raise DegenerateMapError("g2 has zero linear coefficient")
    if coeffs[0] != 0:
        raise DegenerateMapError("g2 must fix the origin")
    return abs(abs(complex(coeffs[1])) - 1.0)


def check_symmetries(germ: SmoothGerm):
    """rot_defect = max over shells of (max - min of P on the shell);
    parity_defect = max |P(z) - P(-z)| over the shell points."""
    angles = 2 * np.pi * np.arange(64) / 64
    rot_defect = 0.0
    parity_defect = 0.0
    for r in (0.15, 0.3, 0.45, 0.6):
        z = r * np.exp(1j * angles)
        vals = np.asarray(germ(z), dtype=float)
        rot_defect = max(rot_defect, float(vals.max() - vals.min()))
        parity_defect = max(
            parity_defect, float(np.max(np.abs(vals - np.asarray(germ(-z), dtype=float))))
        )
    return rot_defect, parity_defect


def verdict_report(model: ModelSpec, mp, grid) -> dict:
    """JSON-ready verdict for one map candidate."""
    out: dict = {"map": repr(mp), "model": model.describe()}
    resid = invariance_residual(model, mp, grid)
    out["residual"] = resid
    out["verdict"] = "pass" if resid <= 1e-12 else "fail"
    if hasattr(mp, "g2_coeffs"):
        g2_coeffs = mp.g2_coeffs()
        out["modulus_defect"] = check_modulus_derivative(g2_coeffs)
        sample = [0.05 + 0.3 * np.exp(2j * np.pi * q / 40) for q in range(40)]
        sup_diff, delta_hat = check_reparam(model.germ, g2_coeffs, sample)
        out["sup_diff"] = sup_diff
        out["delta_hat"] = delta_hat
    return out
