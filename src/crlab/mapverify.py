"""Verification of candidate CR automorphisms: invariance of the model and
the reparametrization law of P under the z2 component."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .autsolve import shell_points
from .errors import DegenerateMapError, InsufficientDataError, ParameterError
from .germs import SmoothGerm
from .models import ModelSpec, rho, surface_point

DELTA_FIT_FLOOR = 1e-100


def _require_finite(name: str, value: complex):
    if not cmath.isfinite(value):
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


def default_grid():
    """The samples a map is verified at: 13 t values times 120 z2 points on
    five shells, as the flat arrays (T, Z2) of their product."""
    t = (0.0,) + tuple(s * v for v in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3) for s in (1, -1))
    z2 = shell_points((0.15, 0.25, 0.35, 0.45, 0.55), 24)
    T, Z2 = np.meshgrid(np.array(t), np.array(z2), indexing="ij")
    return T.ravel(), Z2.ravel()


def invariance_residual(model: ModelSpec, mp, grid) -> tuple[float, float]:
    """max |rho(f(p))| over the on-surface points p of the samples
    grid = (T, Z2), and max |w1| over their images (w1, w2) = f(p)."""
    T, Z2 = grid
    w1, w2 = mp.apply(*surface_point(model, T, Z2))
    return float(np.max(np.abs(rho(model, w1, w2)))), float(np.max(np.abs(w1)))


def check_reparam(germ: SmoothGerm, g2_coeffs, grid):
    """sup |P(g2(z)) - P(z)| and the least-squares delta with
    P(g2(z)) ~ delta * P(z) over non-underflowed samples."""
    z = np.asarray(list(grid), dtype=complex)
    w = np.polyval(tuple(g2_coeffs)[::-1], z)
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


def verdict_report(model: ModelSpec, mp, grid) -> dict:
    """JSON-ready verdict for one map candidate."""
    out: dict = {"map": repr(mp), "model": model.describe()}
    resid, w1_max = invariance_residual(model, mp, grid)
    out["residual"] = resid
    # rho(f(p)) carries roundoff of order eps |w1|, and z1 -> s z1 maps a
    # one-nonminimal model to itself at every s.
    out["verdict"] = "pass" if resid <= 1e-12 * max(1.0, w1_max) else "fail"
    if hasattr(mp, "g2_coeffs"):
        g2_coeffs = mp.g2_coeffs()
        out["modulus_defect"] = check_modulus_derivative(g2_coeffs)
        sample = [0.05 + 0.3 * np.exp(2j * np.pi * q / 40) for q in range(40)]
        sup_diff, delta_hat = check_reparam(model.germ, g2_coeffs, sample)
        out["sup_diff"] = sup_diff
        out["delta_hat"] = delta_hat
    return out
